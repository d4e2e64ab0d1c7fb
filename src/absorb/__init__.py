"""absorb: decide absorption properties of finite relational structures.

The package answers, for a finite relational structure A and a subset B of
its domain, whether B is a (Jónsson) absorbing subuniverse of the
polymorphism algebra of A — with verifiable certificates, brute-force
oracles for cross-checking, exact arity bounds, and the pp-formula toolkit
(simplification, surgery, comb extraction) behind the equivalence argument.

Every name below loads on first use: `import absorb` imports none of the
submodules, and `absorb.decide_jonsson` imports `absorb.decide` (and what it
imports) when it is first read.  A one-query CLI process pays only for the
modules its command runs.
"""

__version__ = "1.0.0"

# home module -> the names it exports here
_EXPORTS = {
    "comb": (
        "CombExtraction",
        "CombFormula",
        "CombReport",
        "SurgeryChoice",
        "SurgeryResult",
        "comb_analyze",
        "comb_extract",
        "surgery_step",
    ),
    "decide": (
        "BoundReport",
        "Certificate",
        "CertEntry",
        "CertStep",
        "ChainWitness",
        "Decision",
        "Quintuple",
        "bounds",
        "chain_from_absorption_term",
        "decide_jonsson",
        "is_absorption_term",
        "is_jonsson_chain",
        "oracle_chain_search",
        "verify_np_certificate",
    ),
    "engine": (
        "DEFAULT_VERTEX_CAP",
        "EssentialWitness",
        "Fixpoint",
        "Power",
        "absorption_term_search",
        "closure_unary",
        "essential_witness_search",
        "fixpoint",
        "generate_subpower",
        "is_b_essential",
        "power_fixpoint",
    ),
    "errors": (
        "AbsorbError",
        "CapExceeded",
        "InputError",
        "NotSubuniverseError",
        "ParseError",
        "SimplifyError",
    ),
    "model": (
        "Digraph",
        "OperationTable",
        "Relation",
        "RelationalStructure",
        "Subset",
        "diagonal",
        "digraph_closed_walk",
        "digraph_meets_diagonal",
        "digraph_reach",
        "full_relation",
        "is_polymorphism",
        "projection_table",
        "relation",
        "relation_project",
        "structure",
        "subset",
        "tuple_rank",
        "unrank_tuple",
        "with_singletons",
    ),
    "ppform": (
        "Atom",
        "DEFAULT_VARIABLE_CAP",
        "FormulaReport",
        "PPFormula",
        "Registry",
        "SimplifyResult",
        "analyze_formula",
        "evaluate_pp",
        "is_satisfiable",
        "is_simplified",
        "pp_substitute",
        "simplify",
        "validate_formula",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
