"""`run_pipeline` against `conftest.reference_run_pipeline`, the stage oracles composed.

The goldens pin 18 fixed traces and each stage has its own oracle; this
checks how the stages compose: pass order, what each pass hands the
next, the provenance of every edit and the tree of the pca pass.  It
compares the segmentations, the edit log and the `clusters.json` value
on the six bundled specs under both presets, and on random traces under
the presets and under random chains of passes.
"""

import dataclasses

import pytest
from test_fuzz import traces

from conftest import REFERENCE_PRESETS, reference_run_pipeline, reference_tree_dicts
from protoseg import synth
from protoseg.cluster import tree_to_json
from protoseg.refine import (BASE_BIT_CONGRUENCE, BASE_NULL_BYTES, KNOWN_PASSES, PASS_PCA,
                             Pipeline, preset, run_pipeline)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def assert_matches_reference(messages, pipeline, reference_pipeline=None):
    """run_pipeline(messages, pipeline) equals the reference run of reference_pipeline."""
    result = run_pipeline(messages, pipeline)
    segs, edits, roots = reference_run_pipeline(messages, reference_pipeline or pipeline)
    assert [(s.message_id, s.cuts) for s in result.segmentations] == \
        [(s.message_id, s.cuts) for s in segs]
    assert result.edits == edits
    assert (result.tree is None) == (roots is None)
    if roots is not None:
        assert tree_to_json(result.tree, result.trace) == reference_tree_dicts(roots)
    return result


@pytest.mark.parametrize("name", sorted(REFERENCE_PRESETS))
@pytest.mark.parametrize("spec", sorted(synth.reference_specs()))
def test_specs_match_the_reference(spec, name):
    messages, _ = synth.generate(dataclasses.replace(synth.reference_specs()[spec],
                                                     message_count=60, rng_seed=3))
    base, passes = REFERENCE_PRESETS[name]
    assert assert_matches_reference(messages, preset(name), Pipeline(base, passes)).edits


@pytest.mark.parametrize("name", sorted(REFERENCE_PRESETS))
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(messages=traces())
def test_random_traces_match_the_reference(name, messages):
    base, passes = REFERENCE_PRESETS[name]
    assert_matches_reference(messages, preset(name), Pipeline(base, passes))


_CHAINS = st.lists(st.sampled_from(KNOWN_PASSES), max_size=7).filter(
    lambda passes: passes.count(PASS_PCA) <= 1)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(messages=traces(), base=st.sampled_from([BASE_NULL_BYTES, BASE_BIT_CONGRUENCE]),
                  passes=_CHAINS)
def test_random_chains_match_the_reference(messages, base, passes):
    assert_matches_reference(messages, Pipeline(base, tuple(passes)))
