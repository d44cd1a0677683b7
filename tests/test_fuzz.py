"""Random payloads through both presets.

Whatever the trace, the pipeline returns one segmentation per message
whose cuts are strictly interior offsets, or raises a ProtosegError;
any other exception is a bug.
"""

import pytest

from protoseg.model import Message, ProtosegError
from protoseg.refine import PRESETS, preset, run_pipeline

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# bytes the base segmenters and static passes key on: nulls, text, extremes
_MARKED = st.lists(st.sampled_from([0x00, 0x00, 0x01, 0x20, 0x41, 0x7f, 0xff]),
                   min_size=1, max_size=24).map(bytes)
_BODIES = st.one_of(st.binary(min_size=1, max_size=24), _MARKED)


@st.composite
def traces(draw):
    """Messages sharing a random header, so similar segments recur and cluster."""
    header = draw(st.binary(max_size=6))
    count = draw(st.integers(1, 60))
    bodies = draw(st.lists(_BODIES, min_size=count, max_size=count))
    return [Message(i, header + body) for i, body in enumerate(bodies)]


@pytest.mark.parametrize("name", sorted(PRESETS))
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(messages=traces())
def test_random_traces_keep_cuts_interior(name, messages):
    try:
        result = run_pipeline(messages, preset(name))
    except ProtosegError:
        return
    assert [s.message_id for s in result.segmentations] == [m.id for m in messages]
    for m, s in zip(messages, result.segmentations):
        assert all(0 < c < len(m.payload) for c in s.cuts)
        assert list(s.cuts) == sorted(set(s.cuts))
