"""embedsim: decide, construct and certify pooled-embedding simulations
of monotonic and ranked-default attribute dependencies."""

from .certifier import (Certificate, ConicalRequirement, FarkasCertificate,
                        FeasibilityOutcome, LinearSystem, PairRequirement,
                        build_avg_dist_relaxation, build_avg_dot_system,
                        certify_strategy_failure, conical_closure_certify,
                        decide_avg_dot, lp_feasible, realize_from_matrix,
                        reverify_certificate)
from .constructors import RECIPES, ConstructionResult, construct
from .fixtures import FIXTURE_NAMES, FIXTURE_SOURCES, fixture
from .logic import (CapExceededError, Formula, KBError, KnowledgeBase,
                    ParseError, Signature, StratifiedKB, consequence_table,
                    entailment_table, entails, format_formula, kb_digest,
                    nm_consequence_table, parse_kb)
from .strategies import (TABLE1_STRATEGIES, AttributeEmbedding,
                         ScaledEmbedding, StrategyId, exact_rule, scale,
                         strategy_from_name)
from .table1 import Table1Report, run_table1
from .verifier import (VerificationReport, verify_monotonic,
                       verify_nonmonotonic)

__version__ = "0.1.0"
