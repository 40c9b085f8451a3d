"""Parameter-tagged fuzzy connectives and fuzzy soft set algebra.

The package provides:

- fuzzy soft sets over finite universes with negation, complement, union,
  intersection and generic connective application (``fuzzysoft.sets``);
- scalar t-norms, t-conorms, negations and implications, builtin or
  expression-defined, and their lifts to tagged memberships
  (``fuzzysoft.connectives``);
- a grid-plus-samples verification engine with counterexample witnesses,
  element classification and equilibrium solving (``fuzzysoft.analysis``);
- an expression and script language (``fuzzysoft.expr``,
  ``fuzzysoft.script``), JSON serialization (``fuzzysoft.fileio``) and a
  command-line interface (``fuzzysoft.cli``).
"""

from .analysis import (
    AxiomCheck,
    AxiomReport,
    CheckConfig,
    ClassificationReport,
    EquilibriumEntry,
    EquilibriumResult,
    Witness,
    ZeroDivisor,
    check_implication_axioms,
    check_negation_axioms,
    check_tconorm_axioms,
    check_tnorm_axioms,
    classify_elements,
    find_equilibria,
)
from .connectives import (
    CLAMP_TOLERANCE,
    KIND_IMPLICATION,
    KIND_NEGATION,
    KIND_TCONORM,
    KIND_TNORM,
    KIND_UNCLASSIFIED,
    LIFT_IMPLICATION,
    LIFT_NEGATION,
    LIFT_TCONORM,
    LIFT_TNORM,
    LiftedConnective,
    ScalarConnective,
    builtin,
    builtin_names,
    resolve_connective,
    dual_of,
    eval_lifted,
    lift_implication,
    lift_negation,
    lift_tconorm,
    lift_tnorm,
    scalar_from_expression,
)
from .errors import (
    ArityError,
    CandidateEvaluationError,
    CodomainError,
    ConfigError,
    DivisionByZeroError,
    DocumentError,
    DslError,
    EvalError,
    FuzzySoftError,
    MissingLabelError,
    ParseError,
    ProductSizeError,
    ScriptRuntimeError,
    TagCollisionError,
    UnboundVariableError,
    UndefinedNameError,
    UniverseMismatchError,
    UnknownBuiltinError,
    ValidationError,
)
from .expr import SourceSpan, parse_scalar, pretty_print, tokenize
from .fileio import document_to_fss, fss_to_document, load_fss, save_fss
from .script import ScriptResult, eval_script, parse_script
from .sets import (
    FuzzySet,
    FuzzySoftSet,
    Universe,
    apply_connective,
    complement_fss,
    intersect_fss,
    make_fuzzy_soft_set,
    negate_fss,
    render_fss,
    tau_family,
    union_fss,
)
from .tags import ParamTag, TaggedMembership, combine_tags

__version__ = "0.1.0"
