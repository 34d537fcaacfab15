"""Self-time arithmetic of the benchmark's spans.

Run from the repository root: python3 -m pytest benchmark
"""
import types

from spans import Recorder, Span, covered_length, patched, self_times


def test_nested_children_are_subtracted_once():
    spans = [
        Span("parent", 0.0, 10.0, -1, 0),
        Span("child", 2.0, 6.0, 0, 0),
        Span("grandchild", 3.0, 5.0, 1, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 2.0]


def test_back_to_back_children_cover_their_union():
    spans = [
        Span("parent", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 4.0, 7.0, 0, 0),
        Span("c", 7.0, 9.5, 0, 0),
    ]
    assert self_times(spans) == [1.5, 3.0, 3.0, 2.5]


def test_child_overhanging_its_parent_is_clipped():
    spans = [Span("parent", 0.0, 4.0, -1, 0), Span("child", 3.0, 6.0, 0, 0)]
    assert self_times(spans)[0] == 3.0


def test_covered_length_merges_overlaps():
    assert covered_length([(5.0, 7.0), (0.0, 2.0), (1.0, 3.0), (7.0, 8.0)]) == 6.0
    assert covered_length([]) == 0.0


def test_self_times_sum_to_root_duration():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("c", 3.0, 4.0, 1, 0),
        Span("d", 5.0, 9.0, 0, 0),
    ]
    assert sum(self_times(spans)) == 10.0


def test_patched_records_nesting_and_restores():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    rec = Recorder()
    with patched(rec, [(mod, "outer", "outer", None), (mod, "inner", "inner", None)]):
        with rec.op("root"):
            assert mod.outer(1) == 4
    assert mod.inner is original_inner
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("root", -1), ("outer", 0), ("inner", 1)]
    assert abs(sum(self_times(rec.spans)) - (rec.spans[0].end - rec.spans[0].start)) < 1e-12


def test_op_names_start_new_operation_ids():
    mod = types.ModuleType("fake")
    mod.trial = lambda: None
    rec = Recorder(op_names=("trial",))
    with patched(rec, [(mod, "trial", "trial", None)]):
        with rec.op("round"):
            mod.trial()
            mod.trial()
    assert [s.op for s in rec.spans] == [0, 1, 2]

