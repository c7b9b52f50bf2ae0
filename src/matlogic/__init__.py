"""Workbench for propositional logics given by finite matrices and atlases.

Subpackages by theme:

- ``lang``: formulas, signatures, parsing, canonical enumeration
- ``algebra``: finite algebras, term clones, congruences, products
- ``matrices``: matrices, atlases, validity, consequence, presets
- ``lindenbaum``: representative formulas and free matrix algebras
- ``decide``: triviality, theorem inclusion, atlas inclusion/equivalence
- ``eqlogic``: equational derivation checking and consequence
- ``intprover``: terminating intuitionistic sequent prover
- ``cli``: the ``matlogic`` batch command
"""

import importlib

# each public name, by the submodule that defines it.  A name's submodule is
# imported on its first use, so a command that needs no matrix never pays for
# numpy.  Names resolve on every access: nothing is cached in this module.
_EXPORTS = {
    "algebra": (
        "Congruence", "FiniteAlgebra", "TermFunction", "clone_functions",
        "congruence_closure_pairs", "direct_product", "evaluate_term", "find_isomorphism",
        "generated_subalgebra", "greatest_congruence_below", "is_congruence",
        "minimal_generating_set", "quotient_by_congruence", "term_table",
    ),
    "decide": (
        "DecisionReport", "atlas_equivalence", "atlas_inclusion", "has_theorems",
        "theorem_inclusion", "weak_equivalence",
    ),
    "eqlogic": (
        "BridgeResult", "CheckResult", "EDerivation", "Equality", "EqConsequenceResult", "Step",
        "SYSTEMS", "bridge_implicational", "check_e_derivation", "decide_ground_equational",
        "eq_consequence", "ground_closure", "parse_equality", "s_translate",
    ),
    "intprover": (
        "ProofTree", "Sequent", "check_proof", "expand_iff", "g3_prove", "glivenko_check",
        "int_leq", "int_ll", "int_relation", "int_sim", "provable", "rn_classify", "rn_power",
    ),
    "lang": (
        "App", "Const", "Formula", "ParseError", "Signature", "Substitution", "Var", "app",
        "conj", "const", "disj", "enumerate_formulas", "format_formula", "iff", "imp", "neg",
        "parse_formula", "subformulas", "var", "variables", "CLASSICAL_SIGNATURE",
        "INT_SIGNATURE",
    ),
    "limits": ("CapExceeded", "DEFAULT_CAPS", "ResourceCaps"),
    "lindenbaum": (
        "RepresentativeSet", "free_matrix_algebra", "indistinguishable", "representatives",
        "restricted_theorems",
    ),
    "matrices": (
        "Atlas", "ConsequenceResult", "Matrix", "PRESET_NAMES", "ValidityResult",
        "boolean_matrix", "combine_matrices", "consequence", "godel_chain",
        "greatest_compatible_congruence", "is_valid", "make_preset", "reduced_matrix",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
