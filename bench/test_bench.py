"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

import spans
from spans import Span, Tracer, install, outer_time, self_time, tap, uninstall
from workloads import WORKLOADS, check_command

ROOT = Path(__file__).resolve().parent.parent


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "r")


class TestSpanArithmetic:
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping) and [8, 9];
    # the second child has a grandchild [4, 5] of the same layer as root
    SPANS = [
        _span(0, "a.root", 0.0, 10.0),
        _span(1, "b.child", 1.0, 3.0, 0),
        _span(2, "b.child", 2.0, 6.0, 0),
        _span(3, "a.root", 4.0, 5.0, 2),
        _span(4, "c.leaf", 8.0, 9.0, 0),
    ]

    def test_self_time_subtracts_union_of_children(self):
        # root: 10 - |[1,6] u [8,9]| = 10 - 6 = 4; nested a.root: 1 - 0 = 1
        assert self_time(self.SPANS, "a.root") == pytest.approx(5.0)
        # child [2,6] loses its grandchild [4,5]
        assert self_time(self.SPANS, "b.child") == pytest.approx(2.0 + 3.0)
        assert self_time(self.SPANS, "c.leaf") == pytest.approx(1.0)

    def test_outer_time_counts_nested_same_layer_once(self):
        assert outer_time(self.SPANS, {"a.root"}) == pytest.approx(10.0)
        assert outer_time(self.SPANS, {"b.child"}) == pytest.approx(6.0)
        assert outer_time(self.SPANS, {"b.child", "c.leaf"}) == pytest.approx(7.0)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tr = Tracer("r", clock=lambda: float(next(ticks)))
        inner = tr.wrap("x.inner", lambda: None)
        outer = tr.wrap("x.outer", lambda: inner())
        outer()
        by_name = {s.name: s for s in tr.spans}
        assert by_name["x.inner"].parent == by_name["x.outer"].id
        assert by_name["x.outer"].parent is None
        assert self_time(tr.spans, "x.outer") == pytest.approx(2.0)


class TestVerdicts:
    def _suite(self, rows, code=0):
        env = {"tool": "stiffkit", "command": "suite", "report": rows}
        return check_command(["suite", "--paper", "--only", "1,3,8"], code,
                             json.dumps(env))

    GOOD = [
        {"number": 1, "passed": True, "details": "pair_sum(8)=388800/143 (exact)"},
        {"number": 3, "passed": True, "details": "found 240 exact dual points"},
        {"number": 8, "passed": True, "details": "ok"},
    ]

    def test_passing_suite(self):
        assert not any(op.failed for op in self._suite(self.GOOD))

    def test_failing_envelopes_are_flagged(self):
        wrong_count = [dict(r) for r in self.GOOD]
        wrong_count[1]["details"] = "found 239 exact dual points"
        wrong_sum = [dict(r) for r in self.GOOD]
        wrong_sum[0]["details"] = "pair_sum(8)=0 (exact)"
        not_passed = [dict(r) for r in self.GOOD]
        not_passed[2]["passed"] = False
        for rows, failing in ((wrong_count, "criterion 3"),
                              (wrong_sum, "criterion 1"),
                              (not_passed, "criterion 8"),
                              (self.GOOD[:2], "criterion 8")):
            ops = self._suite(rows)
            assert [op.name for op in ops if op.failed] == [failing]

    def test_nonzero_exit_fails(self):
        assert all(op.failed for op in self._suite(self.GOOD, code=1))
        assert all(op.failed for op in check_command(
            ["suite", "--paper", "--only", "1,3,8"], 2, "not json"))

    def test_verify_min_gate(self):
        argv = WORKLOADS["descent_2160"].commands(0, {"big": "b", "e8": "e"})[0]
        good = [{"kernel": "riesz:2", "passed": True, "equality_rel": 1e-16},
                {"kernel": "gauss:1", "passed": True, "equality_rel": 3e-16}]
        env = {"command": "verify-min", "report": good}
        assert not check_command(argv, 0, json.dumps(env))[0].failed
        loose = [dict(good[0]), dict(good[1], equality_rel=2e-8)]
        assert check_command(argv, 0, json.dumps({"report": loose}))[0].failed
        assert check_command(argv, 0, json.dumps({"report": good[:1]}))[0].failed
        assert check_command(argv, 1, json.dumps(env))[0].failed


class TestTracedRun:
    def test_wrapper_returns_value_unchanged(self):
        marker = object()
        tr = Tracer("r")
        assert tr.wrap("x.f", lambda a, b=None: (a, b))(marker, b=1) == (marker, 1)
        sink = []
        assert tap(lambda: marker, sink)() is marker and sink == [marker]

    def test_traced_cli_reaches_the_same_output(self, tmp_path):
        from stiffkit import cli, design

        path = str(tmp_path / "d5.json")
        argv = ["dual", path, "-m", "2"]

        def captured(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buf.getvalue()

        assert captured(["construct", "demicube", "5", "-o", path])[0] == 0
        plain = captured(argv)
        tr = Tracer("r")
        original_spectrum = design.spectrum
        undo = spans.trace_stiffkit(tr)
        try:
            assert design.spectrum is not original_spectrum
            traced = captured(argv)
        finally:
            uninstall(undo)
        assert design.spectrum is original_spectrum
        assert traced == plain and plain[0] == 0
        names = {s.name for s in tr.spans}
        assert {"cli.main", "stiffness.certify_stiff", "stiffness.dual_search",
                "design.index_set", "codes.load_code"} <= names
        assert tr.counts["stiffness.dual_points"] == 10
        assert tr.counts["exact.surd_new"] > 0

    def test_install_rebinds_aliases(self):
        from stiffkit import gegenbauer, stiffness

        original = gegenbauer.nodes
        undo = install([(original, tap(original, []))])
        try:
            assert stiffness.gegenbauer_nodes is gegenbauer.nodes
            assert gegenbauer.nodes is not original
        finally:
            uninstall(undo)
        assert stiffness.gegenbauer_nodes is original


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = set(spans.layer_metrics([], Counter()))
    declared = {m["name"] for m in spec["per_layer"]}
    assert layer_names <= declared
