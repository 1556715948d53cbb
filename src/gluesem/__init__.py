"""Deductive semantic composition for LFG: meaning assembly as proof search
in the tensor fragment of higher-order linear logic."""

from .fstruct import (
    FDocument,
    FStructure,
    SemStruct,
    SemVar,
    parse_fstructure,
    resolve,
    sigma,
    sigma_ant,
)
from .glue import (
    Forall,
    GlueFormula,
    LexEntry,
    Lexicon,
    Limp,
    Means,
    Premise,
    PropAtom,
    Tensor,
    instantiate,
    load_lexicon,
    parse_lexicon,
    premises,
    print_formula,
)
from .prover import (
    BudgetExhausted,
    Derivation,
    Reading,
    SearchBudget,
    Sequent,
    enumerate_readings,
    prove_sequent,
    readings_for_document,
    render_trace,
)
from .terms import (
    GlueError,
    MeaningTerm,
    MeaningType,
    TypeMismatch,
    TypingContext,
    UnboundName,
    alpha_equal,
    free_vars,
    normalize,
    parse_type,
    print_term,
)
from .unify import NonPatternError, Substitution, VarClass

__all__ = [name for name in dir() if not name.startswith("_")]
