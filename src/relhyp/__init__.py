"""relhyp: desk-scale computations on finite relative presentations.

The package's names are read from their defining modules, and a module is
imported the first time one of its names (or the module itself, as
``relhyp.cochain``) is read, so ``import relhyp`` loads no library module.
"""

__version__ = "0.1.0"

import importlib as _importlib

# the public names, each listed once, under the module that defines it
_EXPORTS = {
    "presentation": (
        "FreeAbelianModel", "FiniteTableModel", "FreeGroupModel", "XLetter",
        "HLetter", "Word", "EMPTY_WORD", "RelativePresentation",
        "free_reduce", "cyclically_reduce", "parse_document",
    ),
    "errors": (
        "RelhypError", "ParseError", "OracleInvalidError",
        "ResourceCapError", "LpSolverError", "GeodesicNotFoundError",
    ),
    "oracle": (
        "FreeProductOracle", "IntegerQuotientOracle", "FiniteQuotientOracle",
        "PluginOracle", "RelLength", "Trivial", "NontrivialCertified",
        "build_oracle", "budgeted_word_problem",
    ),
    "cayley": (
        "BallGraph", "ball_to_json", "geodesic_witness", "rel_length",
        "truncated_ball",
    ),
    "filling": (
        "DehnProfile", "FillingCertificate", "Unknown", "dehn_profile",
        "relative_area", "replay_certificate", "rho_escalation",
    ),
    "cochain": (
        "CellId", "Chain", "Cochain", "GrowthScan", "Infeasible",
        "Primitive", "Window", "boundary_chain", "build_window",
        "coboundary", "growth_scan", "min_linf_primitive", "pair",
        "relator_indicator_family",
    ),
    "corridor": (
        "Corridor", "FreeAction", "RelAutomorphism", "SeparationReport",
        "apply_action", "apply_automorphism", "build_corridor",
        "check_separated", "check_uniform_flare", "corridor_cocycle_pairing",
        "identity_automorphism", "parse_action", "validate_action",
        "validate_relaut",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule also binds it here, so this runs once
        return _importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
