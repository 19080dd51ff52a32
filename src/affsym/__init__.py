"""affsym: induced affine hypersurface structures, iterated curvature
action on almost symplectic forms, and H-selfadjoint canonical pairs."""

__version__ = "0.1.0"

from .canonical import CanonicalPair, classify, decompose, rank, sip_signature
from .expr import parse_expr, to_source
from .geometry import (CurvatureTensor, InducedStructure, Scenario, curvature,
                       fundamental_residuals, induced_structure, structure_jets)
from .jets import eval_jet
from .model import (BlockSpec, ComplexBlock, GaussModel, RealBlock, assemble,
                    build_block, model_curvature, sip_matrix, tridiagonal_omega)
from .scenarios import load_scenario, scenario_from_dict
from .tensor_ops import (AlgebraicCurvature, CovariantField, GeometricCurvature,
                         alternating_sum_identity, nabla_powers, nabla_tensor,
                         r_power_action, r_power_tensor)
from .verify import (OracleResult, OracleSpec, check_rank_theorem, list_oracles,
                     run_oracle, sample_spec, theorem_witness)

__all__ = [name for name in dir() if not name.startswith("_")]
