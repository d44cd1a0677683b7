"""The call sites the benchmark's traced run wraps stay reachable by name.

`perfbench/tracing.py` replaces each `(module, attribute)` of its
`SITES` with a timing wrapper set on `protoseg.<module>`, and a traced
run fails when a site is gone or records no span.  So every site stays a
callable module attribute, and `run_pipeline` looks its passes up in the
`refine` namespace when it calls them: a pass table bound at import
would call around the wrapper.  The tracing module is loaded from its
file; nothing in it is changed.
"""

import dataclasses
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from protoseg import refine, synth

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = [site for sites, _ in tracing.SITES.values() for site in sites]


def test_every_site_is_a_callable_module_attribute():
    assert len(SITES) > 20
    for module, attr in SITES:
        fn = getattr(importlib.import_module(f"protoseg.{module}"), attr, None)
        assert callable(fn), f"protoseg.{module}.{attr}"


@pytest.mark.parametrize("name", sorted(refine.PRESETS))
def test_run_pipeline_calls_the_wrapped_refine_sites(monkeypatch, name):
    spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=150, rng_seed=1)
    messages, _ = synth.generate(spec)
    calls = Counter()

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the per-leaf sites are expected too: this trace has interpretable leaves
    expected = {attr for module, attr in SITES
                if module == "refine" and attr != "run_pipeline"
                and f"refine.{attr}" not in tracing.UNREACHED[name]}
    assert {"crop_chars", "crop_distinct", "split_fixed", "recursive_cluster",
            "cluster_edits", "apply_edits"} <= expected
    for attr in expected:
        monkeypatch.setattr(refine, attr, counting(attr, getattr(refine, attr)))
    refine.run_pipeline(messages, refine.preset(name))
    assert {attr for attr in expected if calls[attr]} == expected
