"""pumpkit: pumping/fragility certificates for temperature-1 tile assembly.

The package decides, for a path grown by a noncooperative tile assembly
system, whether it can be continued into an infinite ultimately periodic
path (a *pumping* certificate) or blocked by another producible assembly
(a *fragility* certificate), and independently verifies either answer.

Layers, bottom up:

``geometry``
    exact integer geometry on the doubled lattice: curves, plane sides,
    turns.
``tam``
    tile systems, assemblies, producible paths, and the two certificate
    verifiers; it imports only ``errors``.
``visibility``
    glue visibility and spans on glue columns, right-priority selection;
    glue rows are read in the transposed frame.
``oracle``
    brute-force ground truth used by the differential test suite; it
    builds the route search's problem from the definitions and sits below
    the engine it checks.
``shield``
    the engine: from a shield triple to a verified certificate.
``driver``
    ``Frame`` (every rotation, mirror and translation of an instance),
    canonicalization, the explicit bounds, the span case analysis, and
    the reduction from the seedless two-handed model.
``formats`` / ``svgout`` / ``cli``
    text formats, figures, command line.
"""

from .budgets import EnumBudget
from .driver import (
    AnalysisResult,
    Frame,
    analyze,
    bound,
    bound_theorem1_extent,
    bound_theorem1_square_half_side,
    bound_theorem_main_distance,
    canonicalize,
    reduce_2ham,
    transform,
)
from .geometry import (
    PolyCurve,
    Side,
    Turn,
    classify_side,
    turn_right_of_path,
)
from .shield import (
    Shield,
    ShieldOutcome,
    build_workspace,
    enumerate_shields,
    pump_or_block,
)
from .tam import (
    Assembly,
    FragilityCert,
    Path,
    PumpingSpec,
    TileSystem,
    TileType,
    extract_path,
    pumping_term,
    replay_assembly_sequence,
    validate_producible_path,
    verify_fragile_cert,
    verify_pumpable_cert,
)
from .visibility import GlueView, Span, right_priority, spans, visible

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult", "Assembly", "EnumBudget", "FragilityCert", "Frame", "GlueView",
    "Path", "PolyCurve", "PumpingSpec", "Shield", "ShieldOutcome", "Side",
    "Span", "TileSystem", "TileType", "Turn", "analyze", "bound",
    "bound_theorem1_extent", "bound_theorem1_square_half_side",
    "bound_theorem_main_distance", "build_workspace", "canonicalize",
    "classify_side", "enumerate_shields", "extract_path",
    "pump_or_block", "pumping_term",
    "reduce_2ham", "replay_assembly_sequence", "right_priority", "spans",
    "transform", "turn_right_of_path",
    "validate_producible_path", "verify_fragile_cert", "verify_pumpable_cert",
    "visible",
]
