"""Span bookkeeping: union and self-time arithmetic, thread parenting."""

import threading

import pytest

from perfbench.tracing import Span, Tracer, self_time, union_length


def test_union_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0  # nested
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0  # touching


def test_self_time_subtracts_union_of_overlapping_children_from_two_threads():
    # root on the main thread; A and B are its children on two pool
    # threads and overlap in [3, 4]; A's own child must not count against
    # the root, and C runs past the root's end
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 6.0),
        Span(3, "a.child", 1, 2.0, 3.5),
        Span(4, "c", 0, 9.0, 11.0),
    ]
    assert self_time(spans[0], spans) == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time(spans[1], spans) == pytest.approx(3.0 - 1.5)
    assert self_time(spans[2], spans) == pytest.approx(3.0)


def test_spans_on_pool_threads_are_parented_to_the_root():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(name):
        with tracer.span(name):
            barrier.wait()  # both spans open at once
            with tracer.span(name + ".inner"):
                pass

    with tracer.span("cli.cmd_sweep", root=True):
        threads = [threading.Thread(target=work, args=(n,)) for n in ("x", "y")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    by_name = {s.name: s for s in tracer.spans}
    root = by_name["cli.cmd_sweep"]
    assert by_name["x"].parent == root.id and by_name["y"].parent == root.id
    assert by_name["x.inner"].parent == by_name["x"].id
    assert by_name["y.inner"].parent == by_name["y"].id
    overlap = min(by_name["x"].end, by_name["y"].end) - max(
        by_name["x"].start, by_name["y"].start
    )
    assert overlap > 0
    covered = union_length([(by_name[n].start, by_name[n].end) for n in "xy"])
    assert self_time(root, tracer.spans) == pytest.approx(root.duration - covered)
