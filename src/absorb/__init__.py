"""absorb: decide absorption properties of finite relational structures.

The package answers, for a finite relational structure A and a subset B of
its domain, whether B is a (Jónsson) absorbing subuniverse of the
polymorphism algebra of A — with verifiable certificates, brute-force
oracles for cross-checking, exact arity bounds, and the pp-formula toolkit
(simplification, surgery, comb extraction) behind the equivalence argument.
"""

from .comb import (
    CombExtraction,
    CombFormula,
    CombReport,
    SurgeryChoice,
    SurgeryResult,
    comb_analyze,
    comb_extract,
    surgery_step,
)
from .decide import (
    BoundReport,
    Certificate,
    CertEntry,
    CertStep,
    ChainWitness,
    Decision,
    Quintuple,
    bounds,
    chain_from_absorption_term,
    decide_jonsson,
    is_absorption_term,
    is_jonsson_chain,
    oracle_chain_search,
    verify_np_certificate,
)
from .engine import (
    DEFAULT_VERTEX_CAP,
    EssentialWitness,
    Fixpoint,
    absorption_term_search,
    closure_unary,
    essential_witness_search,
    fixpoint,
    generate_subpower,
    is_b_essential,
    power_structure,
)
from .errors import (
    AbsorbError,
    CapExceeded,
    InputError,
    NotSubuniverseError,
    ParseError,
    SimplifyError,
)
from .model import (
    Digraph,
    OperationTable,
    Relation,
    RelationalStructure,
    Subset,
    diagonal,
    digraph_closed_walk,
    digraph_meets_diagonal,
    digraph_reach,
    full_relation,
    is_polymorphism,
    projection_table,
    relation,
    relation_project,
    structure,
    subset,
    tuple_rank,
    unrank_tuple,
    with_singletons,
)
from .ppform import (
    Atom,
    DEFAULT_VARIABLE_CAP,
    FormulaReport,
    PPFormula,
    Registry,
    SimplifyResult,
    analyze_formula,
    evaluate_pp,
    is_satisfiable,
    is_simplified,
    pp_substitute,
    simplify,
    validate_formula,
)

__version__ = "1.0.0"
