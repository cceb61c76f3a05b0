"""Metric names, units and how each is computed from a worker's measurements.

End-to-end metrics come from untraced runs only. Per-layer metrics come
from a traced run's spans. Unless a name says otherwise, a per-layer `_ms`
is self time: the time inside the listed functions minus the time of the
traced calls they make. `cli.run_ms` and the `verify.*_ms` metrics are
inclusive.
"""

from __future__ import annotations

import re
import statistics

END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]

VERIFY_CHECKS = [
    "breaks.bijection_onto_prime_to_p",
    "breaks.b_lower_matches_psi",
    "breaks.sequence_rows_consistent",
    "breaks.c_truncation_counts",
    "rationals.geometric_identities",
    "fpspace.idempotent_is_idempotent",
    "fpspace.shift_eigen_relation",
    "fpspace.projector_equals_eigenspace",
    "fpspace.line_enumeration_counts",
    "filtration.psi_phi_inverse",
    "filtration.phi_is_inverted_psi",
    "filtration.different_closed_vs_oracle",
    "filtration.dimension_bookkeeping",
    "filtration.upper_jumps_avoid_p",
    "filtration.index_table_matches_dims",
    "filtration.orthogonality_complementarity",
    "mass.brute_force_vs_closed",
    "mass.char_p_partial_sums",
    "mass.totals_within_bounds",
    "mass.per_break_rows",
    "mass.series_consistency",
    "mass.average_consistency",
    "mass.zeta_exceeds_regular",
]

CYCLIC_MASS = (
    "mass.cyclic_mass", "mass.cyclic_mass_char_p", "mass.cyclic_mass_char0_zeta",
    "mass.cyclic_mass_char0_regular", "mass.lines_with_break_count",
    "mass.tres_ramifiee_count", "mass.series_value", "mass.serre_total_mass",
)

# name -> (unit, kind, span names); kind is "self", "total" or "calls".
SPAN_METRICS = {
    "cli.run_ms": ("ms", "total", ("cli.run",)),
    "cli.self_ms": ("ms", "self", ("cli.run",)),
    "rationals.decimal_string_ms": ("ms", "self", ("rationals.decimal_string",)),
    "breaks.b_lower_calls": ("count", "calls", ("breaks.b_lower",)),
    "breaks.b_lower_ms": ("ms", "self", ("breaks.b_lower",)),
    "breaks.b_upper_calls": ("count", "calls", ("breaks.b_upper",)),
    "breaks.break_sequence_ms": ("ms", "self", ("breaks.break_sequence",)),
    "filtration.lower_filtration_ms": ("ms", "self", ("filtration.lower_filtration",)),
    "filtration.upper_filtration_ms": ("ms", "self", ("filtration.upper_filtration",)),
    "filtration.herbrand_build_ms": ("ms", "self", (
        "filtration.herbrand_psi", "filtration.herbrand_phi", "filtration.HerbrandMap.inverse")),
    "filtration.space_model_ms": ("ms", "self", (
        "filtration.v_space_model", "filtration.unit_space_model")),
    "filtration.index_table_ms": ("ms", "self", ("filtration.index_table",)),
    "filtration.herbrand_eval_calls": ("count", "calls", ("filtration.HerbrandMap.__call__",)),
    "filtration.herbrand_eval_ms": ("ms", "self", ("filtration.HerbrandMap.__call__",)),
    "filtration.break_of_line_calls": ("count", "calls", ("filtration.break_of_line",)),
    "mass.cyclic_mass_ms": ("ms", "self", CYCLIC_MASS),
    "mass.brute_force_ms": ("ms", "self", ("mass.brute_force_mass",)),
    "fpspace.rref_calls": ("count", "calls", ("fpspace.rref",)),
    "fpspace.rref_ms": ("ms", "self", ("fpspace.rref",)),
    "fpspace.apply_idempotent_ms": ("ms", "self", ("fpspace.apply_idempotent",)),
    "fpspace.eigenspace_ms": ("ms", "self", ("fpspace.eigenspace",)),
    "fpspace.enumerate_lines_ms": ("ms", "self", ("fpspace.enumerate_lines",)),
}
SPAN_METRICS.update({
    f"verify.{name}_ms": ("ms", "total", (f"verify.{name}",)) for name in VERIFY_CHECKS
})

PER_LAYER = (
    [("import.ramify_ms", "ms"), ("import.ramify_cli_ms", "ms"), ("import.verify_ms", "ms"),
     ("cli.out_bytes", "bytes")]
    + [(name, unit) for name, (unit, _, _) in SPAN_METRICS.items()]
    + [("mass.lines_enumerated", "computed_lines"), ("mass.lines_per_s", "1/s"),
       ("trace.overhead_ratio", "ratio")]
)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def op_medians_ns(latency_ns: list[int], ops_per_pass: int) -> list[float]:
    """Each op's median time over the run's passes.

    latency_ns holds the passes one after another, each in the same op
    order. A pause of the shared machine hits one timing of an op, not its
    median, so quantiles over these medians move far less from run to run
    than quantiles over every timing.
    """
    passes = len(latency_ns) // ops_per_pass
    return [statistics.median(latency_ns[i::ops_per_pass][:passes]) for i in range(ops_per_pass)]


def end_to_end(result: dict, setups_s: list[float]) -> dict:
    per_op_ns = op_medians_ns(result["log"]["latency_ns"], result["ops_per_pass"])
    lat_ms = [ns / 1e6 for ns in per_op_ns]
    values = {
        "wall_s": sum(per_op_ns) / 1e9,
        "op_p50_ms": quantile(lat_ms, 50),
        "op_p90_ms": quantile(lat_ms, 90),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(setups_s),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times_ms(stderr_texts: list[str]) -> dict[str, float]:
    """Median cumulative import time (ms) of ramify, ramify.cli and ramify.verify."""
    samples: dict[str, list[float]] = {"ramify": [], "ramify.cli": [], "ramify.verify": []}
    for text in stderr_texts:
        seen = {}
        for line in text.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match[3] in samples:
                seen[match[3]] = int(match[2]) / 1000
        for module in samples:
            samples[module].append(seen.get(module, 0.0))
    return {module: statistics.median(vals) for module, vals in samples.items()}


def per_layer(summary: dict, imports: dict, result: dict) -> dict:
    values = {
        "import.ramify_ms": imports["ramify"],
        "import.ramify_cli_ms": imports["ramify.cli"],
        "import.verify_ms": imports["ramify.verify"],
        "cli.out_bytes": result["traced_log"]["out_bytes"],
    }
    key = {"self": "self_ns", "total": "total_ns", "calls": "calls"}
    for name, (_, kind, spans) in SPAN_METRICS.items():
        got = sum(summary[key[kind]].get(span, 0) for span in spans)
        values[name] = got if kind == "calls" else got / 1e6
    lines = summary["counters"].get("mass.lines_enumerated", 0)
    brute_s = summary["total_ns"].get("mass.brute_force_mass", 0) / 1e9
    values["mass.lines_enumerated"] = lines
    values["mass.lines_per_s"] = lines / brute_s if brute_s else 0.0
    values["trace.overhead_ratio"] = result["traced_wall_ns"] / result["walls_ns"][0]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
