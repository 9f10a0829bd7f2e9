"""The tuning store's fault site: a corrupted store on disk."""

import json

import pytest

from repro.fault import FaultPlan


class TestNewFaultSites:
    def test_parse_store_corruption_spec(self):
        plan = FaultPlan.parse("store.corruption:p=0.5,count=inf,seed=7")
        assert "store.corruption" in plan.specs

    def test_short_names_resolve(self):
        plan = FaultPlan.parse("shard_crash:p=1.0;corruption:p=1.0")
        assert set(plan.specs) == {"serve.shard_crash", "store.corruption"}

    def test_corrupt_store_text_garbles(self):
        plan = FaultPlan.parse("store.corruption:p=1.0,count=1,seed=5")
        plan.reset()
        text = '{"schema": 2, "entries": {}}'
        garbled = plan.corrupt_store_text(text)
        assert garbled is not None and garbled != text
        with pytest.raises(json.JSONDecodeError):
            json.loads(garbled)
        # Budget spent.
        assert plan.corrupt_store_text(text) is None
