"""relhyp: desk-scale computations on finite relative presentations."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .presentation import (
    FreeAbelianModel,
    FiniteTableModel,
    FreeGroupModel,
    XLetter,
    HLetter,
    Word,
    EMPTY_WORD,
    RelativePresentation,
    free_reduce,
    cyclically_reduce,
    letter_count,
    parse_presentation,
    parse_document,
    serialize_presentation,
)
from .errors import (
    RelhypError,
    ParseError,
    OracleInvalidError,
    ResourceCapError,
    LpSolverError,
    GeodesicNotFoundError,
)
from .oracle import (
    FreeProductOracle,
    IntegerQuotientOracle,
    FiniteQuotientOracle,
    PluginOracle,
    Trivial,
    NontrivialCertified,
    build_oracle,
    budgeted_word_problem,
)
from .cayley import (
    BallGraph,
    RelLength,
    ball_to_csv,
    ball_to_json,
    geodesic_witness,
    rel_length,
    truncated_ball,
)
from .filling import (
    DehnProfile,
    FillingCertificate,
    Unknown,
    dehn_profile,
    relative_area,
    replay_certificate,
    rho_escalation,
)
from .cochain import (
    CellId,
    Chain,
    Cochain,
    GrowthScan,
    Infeasible,
    Primitive,
    Window,
    boundary_chain,
    build_window,
    coboundary,
    growth_scan,
    min_linf_primitive,
    pair,
    relator_indicator_family,
    window_to_json,
)
from .corridor import (
    Corridor,
    FreeAction,
    RelAutomorphism,
    SeparationReport,
    apply_action,
    apply_automorphism,
    build_corridor,
    check_separated,
    check_uniform_flare,
    corridor_cocycle_pairing,
    encode_action,
    identity_automorphism,
    parse_action,
    validate_action,
    validate_relaut,
)

# the public names are the ones imported above, each listed once there
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)]
