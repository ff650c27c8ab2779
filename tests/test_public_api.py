"""The package's public names, pinned: an entry point comes or goes only
on purpose, with this list changed beside it."""

import qrng_forge

PUBLIC = [
    "AnalyzerSchedule", "BatteryReport", "BitSequence", "CertBlock", "Channel", "ChshResult",
    "CoincidenceConfig", "CoincidenceList", "CorrelationCounts", "EntropyReport",
    "ExtractionReport", "ExtractorParams", "RateSummary", "SourceConfig", "StreamCoincidences",
    "TagStream", "TwoPhotonState", "Verdict", "VisibilityResult", "accidental_rate",
    "assign_bits", "autocorr", "bell_coincidences", "certify", "certify_run",
    "chsh_measurement", "chsh_s", "coincide_stream", "coincidence", "coincidence_summary",
    "correlation_E", "correlation_E_stderr", "decode_stream", "encode_stream",
    "expected_rates", "export_bits", "extract", "extract_stream", "find_coincidences",
    "fringe_counts", "g2_cross", "generate_events", "import_csv", "joint_outcome_probs",
    "min_entropy", "output_length", "projection_probability", "proportion_range",
    "pvalue_uniformity", "randtests", "read_bits", "read_stream", "run_battery",
    "run_verdict", "source", "state_from_hwp", "timetags", "toeplitz_extract", "visibility",
    "write_bits", "write_stream",
]


def test_public_names_are_pinned():
    assert qrng_forge.__all__ == PUBLIC
