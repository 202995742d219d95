"""Unit tests for the content-addressed evaluation cache."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.tuning.eval_cache import EvalCache, default_cache, quantize_params
from repro.tuning.parameters import default_params


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------


def test_quantize_is_stable_and_complete():
    params = default_params()
    key = quantize_params(params)
    assert key == quantize_params(params)
    # Every knob appears in the key.
    for name in params.as_dict():
        assert f"{name}=" in key


def test_quantize_absorbs_float_roundtrip_noise():
    params = default_params()
    jittered = params.copy(p_max=params.p_max * (1 + 1e-13))
    assert quantize_params(params) == quantize_params(jittered)


def test_quantize_distinguishes_real_changes():
    params = default_params()
    changed = params.copy(p_max=params.p_max * 1.01)
    assert quantize_params(params) != quantize_params(changed)


def test_quantize_integer_knobs_exact():
    params = default_params()
    bumped = params.copy(rpg_threshold=params.rpg_threshold + 1)
    assert quantize_params(params) != quantize_params(bumped)


# ---------------------------------------------------------------------------
# Hit/miss accounting
# ---------------------------------------------------------------------------


def test_get_put_roundtrip_and_counters():
    cache = EvalCache()
    params = default_params()
    assert cache.get("fp", 1, params) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put("fp", 1, params, {"utility": 0.5})
    assert cache.get("fp", 1, params) == {"utility": 0.5}
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == pytest.approx(0.5)
    assert len(cache) == 1


def test_key_separates_scenario_seed_and_params():
    cache = EvalCache()
    params = default_params()
    cache.put("fp-a", 1, params, {"utility": 0.1})
    assert cache.get("fp-b", 1, params) is None
    assert cache.get("fp-a", 2, params) is None
    assert cache.get("fp-a", 1, params.copy(p_max=0.77)) is None
    assert cache.get("fp-a", 1, params) == {"utility": 0.1}


def test_clear_resets_everything():
    cache = EvalCache()
    cache.put("fp", 1, default_params(), {"utility": 0.5})
    cache.get("fp", 1, default_params())
    cache.clear()
    assert len(cache) == 0
    assert cache.stats() == {
        "entries": 0, "hits": 0, "misses": 0, "hit_rate": 0.0
    }


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "cache.json"
    cache = EvalCache(path=path)
    params = default_params()
    cache.put("fp", 1, params, {"utility": 0.42, "events": 7})
    cache.save()

    reloaded = EvalCache(path=path)  # constructor loads existing files
    assert reloaded.get("fp", 1, params) == {"utility": 0.42, "events": 7}


def test_load_tolerates_missing_and_corrupt_files(tmp_path):
    cache = EvalCache(path=tmp_path / "nope.json")
    assert cache.load() == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cache.load(bad) == 0
    bad.write_text(json.dumps([1, 2, 3]))  # wrong shape
    assert cache.load(bad) == 0


def test_concurrent_savers_keep_each_others_entries(tmp_path):
    path = tmp_path / "cache.json"
    first, second = EvalCache(path=path), EvalCache(path=path)
    params = default_params()
    first.put("fp", 1, params, {"utility": 0.1})
    second.put("fp", 2, params, {"utility": 0.2})
    first.save()
    second.save()  # used to overwrite the file with its own store only

    merged = EvalCache(path=path)
    assert len(merged) == 2
    assert merged.get("fp", 1, params) == {"utility": 0.1}
    assert merged.get("fp", 2, params) == {"utility": 0.2}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cache.json", "cache.json.lock"
    ]


def _save_own_keys(path, writer: int, saves: int) -> None:
    cache = EvalCache(path=None)
    for i in range(saves):
        cache.put("fp", writer * saves + i, default_params(), {"utility": 0.5})
        cache.save(path)


def test_racing_savers_lose_nothing(tmp_path):
    """More writers than cores, every save racing the others' saves."""
    path = tmp_path / "cache.json"
    writers, saves = 6, 5
    procs = [
        multiprocessing.Process(target=_save_own_keys, args=(path, w, saves))
        for w in range(writers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(30)
        assert proc.exitcode == 0
    assert len(EvalCache(path=path)) == writers * saves
    assert not list(tmp_path.glob("*.tmp"))


def test_truncated_file_loads_cold_and_next_save_repairs_it(tmp_path):
    path = tmp_path / "cache.json"
    cache = EvalCache(path=path)
    params = default_params()
    cache.put("fp", 1, params, {"utility": 0.42})
    cache.save()
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # a writer died mid-JSON

    cold = EvalCache(path=path)
    assert len(cold) == 0
    cold.put("fp", 2, params, {"utility": 0.5})
    cold.save()
    assert json.loads(path.read_text()) == {
        cold.key("fp", 2, params): {"utility": 0.5}
    }


def test_memory_only_cache_refuses_persistence():
    cache = EvalCache()
    with pytest.raises(ValueError):
        cache.save()
    with pytest.raises(ValueError):
        cache.load()


def test_default_cache_env_controls(tmp_path, monkeypatch):
    assert default_cache(enabled=False) is None
    monkeypatch.setenv("REPRO_EVAL_CACHE", "0")
    assert default_cache() is None
    monkeypatch.setenv("REPRO_EVAL_CACHE", str(tmp_path / "c.json"))
    cache = default_cache()
    assert cache is not None
    assert cache.path == tmp_path / "c.json"
