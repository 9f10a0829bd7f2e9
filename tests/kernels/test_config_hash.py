"""``YaSpMVConfig`` hashes once per instance, and nothing else sees it.

The fast backend looks its bound launches up by config on every warm
call.  The stored hash is no dataclass field, so equality, ``repr``,
``fields()``, ``replace()``, ``asdict()`` and the tuning store's JSON
ignore it, and it never travels in a pickle: str hashes differ between
processes, so an unpickled config hashes itself again.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

from repro.kernels import YaSpMVConfig
from repro.tuning import TuningPoint
from repro.tuning.persistence import _encode

FIELDS = (
    "workgroup_size", "strategy", "reg_size", "shm_size", "tile_size",
    "result_cache_multiple", "transpose", "use_texture", "scan_mode",
    "cross_wg", "fine_grain", "workgroup_ids", "precision",
)


def test_fields_unchanged():
    assert tuple(f.name for f in dataclasses.fields(YaSpMVConfig)) == FIELDS


def test_equal_configs_hash_equal():
    a = YaSpMVConfig(tile_size=8, transpose="online")
    b = YaSpMVConfig(tile_size=8, transpose="online")
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, name) for name in FIELDS))
    assert {a: "launch"}[b] == "launch"
    assert dataclasses.replace(a, tile_size=4) != a


def test_hash_is_no_field():
    cfg = YaSpMVConfig(workgroup_size=128)
    assert "_hash" not in repr(cfg)
    assert list(dataclasses.asdict(cfg)) == list(FIELDS)
    assert dataclasses.astuple(cfg) == tuple(getattr(cfg, name) for name in FIELDS)
    assert dataclasses.replace(cfg, workgroup_size=64) == YaSpMVConfig(workgroup_size=64)
    blob = json.loads(json.dumps(_encode(TuningPoint(kernel=cfg))))
    assert list(blob["kernel"]) == list(FIELDS)


def test_pickle_carries_no_hash():
    cfg = YaSpMVConfig(workgroup_ids="atomic", scan_mode="tree")
    table = {cfg: "launch"}
    blob = pickle.dumps(cfg)
    assert b"_hash" not in blob
    clone = pickle.loads(blob)
    assert clone == cfg and table[clone] == "launch"
    assert hash(clone) == hash(cfg)
