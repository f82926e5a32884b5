"""Memory work gates for the Chrome-trace round trip.

Bytes allocated, not times, so they hold on any host.  ``tracemalloc``
measures the peak a call adds on top of what existed before it, on two
synthetic traces of 5 000 and 20 000 spans; the gates bound the growth
per added span:

* ``write_chrome_trace`` holds the spans' sort keys and one chunk of
  events, not the document or its text;
* ``analyze_trace`` holds one piece of the file and the request columns,
  not the text, the parsed document or a :class:`Span` per event.

The document-sized paths (a whole document plus its text: about
1.6 KB per span to write and 1.9 KB per span to analyze) fail both;
the streamed ones measure about 140 B and 470 B per span.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.observe.analyze import analyze_trace
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry import Telemetry
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.spans import INSTANT, Span

#: The two trace sizes the per-span growth is taken between.
SIZES = (5_000, 20_000)
#: Writer growth per span: a sort-key tuple, its two new numbers and a
#: list slot (about 140 B) with room to spare.
WRITE_BYTES_PER_SPAN = 300
#: Analyzer growth per span: a run row's columns (about 400 B) with
#: room to spare.
ANALYZE_BYTES_PER_SPAN = 1_000


def _telemetry(spans: int) -> Telemetry:
    """``spans`` spans shaped like a traced run's: per request a run
    span with flight-recorder attrs, every tenth queued first, every
    twentieth boosted (an instant)."""
    out: list[Span] = []
    lane = 0
    while len(out) < spans:
        arrival = lane * 1.5
        start = arrival + (lane % 10 == 0) * (lane % 7) * 0.25
        end = start + 3.0 + (lane % 11) / 3
        if start > arrival:
            out.append(Span("queue", "sim", lane, 0, None, arrival, start, "span", {"wait": "e1"}))
        attrs = {name: 0.5 + (lane % 5) / 7 for name in ATTRIBUTION_COMPONENTS}
        attrs.update(
            latency_ms=end - arrival, degree=2, boosted=lane % 20 == 0,
            energy_j=0.003 + lane % 13 / 1e4, pool="little" if lane % 3 else "big",
        )
        out.append(Span("run", "sim", lane, 0, None, start, end, "span", attrs))
        if lane % 20 == 0:
            out.append(Span("boost", "sim", lane, 0, None, start, start, INSTANT, {}))
        lane += 1
    del out[spans:]
    for span_id, span in enumerate(out, 1):
        span.span_id = span_id
    telemetry = Telemetry()
    telemetry.tracer.spans = out
    telemetry.metrics.counter("sim.arrivals").inc(lane)
    return telemetry


def peak_bytes(fn, *args, **kwargs) -> int:
    """The most ``fn`` held at once beyond what existed when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traces")
    out = {}
    for spans in SIZES:
        telemetry = _telemetry(spans)
        path = write_chrome_trace(directory / f"trace-{spans}.json", telemetry)
        out[spans] = (telemetry, path)
    return out


def _growth_per_span(peaks: dict[int, int]) -> float:
    small, large = SIZES
    return (peaks[large] - peaks[small]) / (large - small)


def test_writer_holds_sort_keys_not_the_document(traces, tmp_path):
    peaks = {
        spans: peak_bytes(write_chrome_trace, tmp_path / f"again-{spans}.json", telemetry)
        for spans, (telemetry, _) in traces.items()
    }
    assert _growth_per_span(peaks) <= WRITE_BYTES_PER_SPAN, peaks


def test_analyzer_holds_columns_not_the_document(traces):
    peaks = {spans: peak_bytes(analyze_trace, path) for spans, (_, path) in traces.items()}
    assert _growth_per_span(peaks) <= ANALYZE_BYTES_PER_SPAN, peaks
