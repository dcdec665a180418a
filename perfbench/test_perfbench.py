"""Tests of the benchmark's own machinery (not of sqftori).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import sqftori  # noqa: E402
import sqftori.cli  # noqa: E402

SMALL_ARGS = ["verify", "all", "--n-max", "3", "--order", "6", "--budget", "30", "--prime", "3"]


def _cli_output(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sqftori.cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def small_output() -> str:
    code, text = _cli_output(SMALL_ARGS)
    assert code == 0
    return text


def test_digest_ignores_elapsed_ms_only(small_output):
    payload = json.loads(small_output)
    for r in payload["reports"]:
        r["elapsed_ms"] += 17
    shifted = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert child.timing_free_digest(shifted) == child.timing_free_digest(small_output)


def test_altered_rhs_counts_every_report_as_failed(small_output):
    digest, reports = child.timing_free_digest(small_output)
    payload = json.loads(small_output)
    payload["reports"][reports // 2]["rhs_rendered"] += " + 1"
    altered = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    bench = run.Run("small", {"reports": reports, "sha256": digest})
    assert bench.check(*child.timing_free_digest(small_output), "original")
    assert not bench.check(*child.timing_free_digest(altered), "altered")
    assert (bench.attempted, bench.failed) == (2 * reports, reports)


def test_recorded_digests_cover_every_workload():
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(run.WORKLOADS)
    assert expected["warm-library"] == expected["verify-default"]
    assert [expected[w]["reports"] for w in ("verify-default", "symbolic-n12", "oracle-disc")] == [
        470,
        509,
        15,
    ]


def test_self_time_subtracts_child_spans():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child [6, 8]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 2),
        ("other-root", 11.0, 12.5, -1),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 4.0, 8.0, 0)]
    assert tracer.self_times(spans)[0] == 3.0


def test_span_slices_are_reindexed():
    tr = tracer.Tracer()
    outer = tr.wrap("outer", lambda f: f())
    inner = tr.wrap("inner", lambda: 1)
    outer(inner)
    first = len(tr.span_start)
    outer(inner)
    names = [(name, parent) for name, _, _, parent in tr.spans(first)]
    assert names == [("outer", -1), ("inner", 0)]


def _references(pkg):
    """Every traced entry point, as seen from each place that holds it."""
    return {
        "cli.main": pkg.cli.main,
        "suites.verify_all": pkg.suites.verify_all,
        "cli suite dict": pkg.cli._SQFREE_SUITES["discriminant"],
        "cli tori dict": pkg.cli._TORI_SUITES["count"],
        "cli.reports_to_json": pkg.cli.reports_to_json,
        "suites.make_report": pkg.suites.make_report,
        "tori.make_report": pkg.tori.make_report,
        "exact.poly_gcd": pkg.exact.poly_gcd,
        "ffpoly.enumerate_stats": pkg.ffpoly.enumerate_stats,
        "package enumerate_stats": pkg.enumerate_stats,
        "sqfree.count_irreducibles": pkg.sqfree.count_irreducibles,
        "package total_tori": pkg.total_tori,
        "tori.gl_order": pkg.tori.gl_order,
        "RationalFunction.__add__": pkg.exact.RationalFunction.__dict__["__add__"],
        "TruncatedSeries.exp": pkg.series.TruncatedSeries.__dict__["exp"],
    }


def test_install_patches_every_binding_and_restore_puts_originals_back():
    before = _references(sqftori)
    tr = tracer.Tracer()
    tr.install(sqftori)
    try:
        during = _references(sqftori)
    finally:
        tr.restore()
    after = _references(sqftori)
    untraced = {"tori.gl_order"}  # read through cache_info only
    for key, original in before.items():
        assert after[key] is original, key
        assert (during[key] is original) == (key in untraced), key
        if key not in untraced:
            assert during[key].__wrapped__ is original, key


def test_traced_output_matches_untraced_and_counts_repeat(small_output):
    results = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install(sqftori)
        try:
            code, text = _cli_output(SMALL_ARGS)
        finally:
            tr.restore()
        assert code == 0
        assert child.timing_free_digest(text) == child.timing_free_digest(small_output)
        results.append(tracer.layer_metrics(tr.spans(), tr.counts, {}))
    counts = [{k: v for k, v in r.items() if isinstance(v, int)} for r in results]
    assert counts[0] == counts[1]
    assert results[0]["suites.reports"] == len(json.loads(small_output)["reports"])
    assert results[0]["report.make_report.calls"] > 0
    assert results[0]["exact.rf_arith.calls"] > 0


def test_metric_names_are_well_formed_and_all_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name

    per_layer = {m["name"] for m in spec["per_layer"]}
    caches = tracer.cache_delta(tracer.cache_snapshot(sqftori), tracer.cache_snapshot(sqftori))
    emitted = set(tracer.layer_metrics([], {}, caches)) | {"process.cpu_s", "trace.overhead_ratio"}
    assert emitted == per_layer
    assert set(run.E2E_AGGREGATE) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_no_child_starts_after_the_run_deadline():
    bench = run.Run("small", {"reports": 1, "sha256": ""})
    bench._deadline = 0.0
    record = bench.spawn("import")
    assert "error" in record
    assert not bench.usable(record, "import")
    assert (bench.attempted, bench.failed) == (1, 1)
