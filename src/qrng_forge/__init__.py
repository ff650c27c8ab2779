"""qrng-forge: an entangled-photon-pair QRNG pipeline.

Simulates a three-section entangled pair source as six channels of
time-tagged detections, matches coincidences into raw bits, certifies
quantumness live (CHSH S with counting-noise margin, g2 fallback),
estimates min-entropy, extracts unbiased bits with Toeplitz hashing, and
validates the output with autocorrelation and an SP 800-22 core subset.
"""

__version__ = "0.1.0"

from .certify import (
    CertBlock,
    ChshResult,
    CorrelationCounts,
    Verdict,
    VisibilityResult,
    certify_run,
    chsh_measurement,
    chsh_s,
    correlation_E,
    correlation_E_stderr,
    fringe_counts,
    g2_cross,
    run_verdict,
    visibility,
)
from .coincidence import (
    CoincidenceConfig,
    CoincidenceList,
    StreamCoincidences,
    accidental_rate,
    assign_bits,
    bell_coincidences,
    coincide_stream,
    coincidence_summary,
    find_coincidences,
)
from .extract import (
    EntropyReport,
    ExtractionReport,
    ExtractorParams,
    extract_stream,
    min_entropy,
    output_length,
    toeplitz_extract,
)
from .randtests import (
    BatteryReport,
    autocorr,
    export_bits,
    proportion_range,
    pvalue_uniformity,
    run_battery,
)
from .source import (
    AnalyzerSchedule,
    RateSummary,
    SourceConfig,
    TwoPhotonState,
    expected_rates,
    generate_events,
    joint_outcome_probs,
    projection_probability,
    state_from_hwp,
)
from .timetags import (
    BitSequence,
    Channel,
    TagStream,
    decode_stream,
    encode_stream,
    import_csv,
    read_bits,
    read_stream,
    write_bits,
    write_stream,
)

__all__ = [name for name in dir() if not name.startswith("_")]
