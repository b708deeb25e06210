"""Multi-server coded caching simulator for the small-cache regime.

Coded placement fills each user's cache with a sum of subfiles; delivery
zero-forces per-row payloads so that one transmission serves many users,
achieving the analytic optimum delivery time in both antenna regimes.
"""

from .channel import (
    ChannelMatrix,
    DecodeResult,
    ReceptionLog,
    decode_all,
    receive,
)
from .content import (
    CacheContent,
    DemandVector,
    Library,
    LibraryConfig,
    place_caches,
    random_library,
)
from .delivery import (
    DeliverySchedule,
    RowCodePlan,
    TransmitBlock,
    build_row_plan,
    build_row_plan_reduced,
    build_schedule,
    delivery_time,
    draw_channel,
    is_supported,
    regime,
    render_delivery_table,
    segment_sizes,
    verify_row_plan,
)
from .errors import (
    DegenerateChannel,
    DimensionMismatch,
    FieldError,
    InconsistentInputs,
    IndivisibleFile,
    PlanVerificationError,
    ResamplingExhausted,
    SimulatorError,
    WrongRegime,
)
from .field import ComplexField, FieldContext, PrimeField, make_field
from .metrics import (
    CSV_HEADER,
    MetricsReport,
    achievable_time,
    assemble_report,
    converse_bound,
    uncoded_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "CacheContent",
    "ChannelMatrix",
    "ComplexField",
    "CSV_HEADER",
    "DecodeResult",
    "DegenerateChannel",
    "DeliverySchedule",
    "DemandVector",
    "DimensionMismatch",
    "FieldContext",
    "FieldError",
    "InconsistentInputs",
    "IndivisibleFile",
    "Library",
    "LibraryConfig",
    "MetricsReport",
    "PlanVerificationError",
    "PrimeField",
    "ReceptionLog",
    "ResamplingExhausted",
    "RowCodePlan",
    "SimulatorError",
    "TransmitBlock",
    "WrongRegime",
    "achievable_time",
    "assemble_report",
    "build_row_plan",
    "build_row_plan_reduced",
    "build_schedule",
    "converse_bound",
    "decode_all",
    "delivery_time",
    "draw_channel",
    "is_supported",
    "make_field",
    "place_caches",
    "random_library",
    "receive",
    "regime",
    "render_delivery_table",
    "segment_sizes",
    "uncoded_baseline",
    "verify_row_plan",
]
