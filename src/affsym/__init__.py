"""affsym: induced affine hypersurface structures, iterated curvature
action on almost symplectic forms, and H-selfadjoint canonical pairs."""

__version__ = "0.1.0"

from .canonical import CanonicalPair, classify, decompose, rank
from .expr import parse_expr
from .geometry import (InducedStructure, Scenario, curvature, fundamental_residuals,
                       induced_structure, structure_jets)
from .jets import eval_jets
from .model import BlockSpec, ComplexBlock, GaussModel, RealBlock, assemble
from .scenarios import load_scenario, scenario_from_dict
from .tensor_ops import (AlgebraicCurvature, GeometricCurvature,
                         alternating_sum_identity, nabla_powers, r_power_action)
from .verify import (OracleResult, OracleSpec, check_rank_theorem, list_oracles,
                     run_oracle, sample_spec, theorem_witness)

__all__ = [name for name in dir() if not name.startswith("_")]
