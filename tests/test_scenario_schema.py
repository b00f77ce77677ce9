"""The declared scenario schema: a malformed file is a ConfigError raised before
any client is built, and a well-formed one is read without being changed."""

import copy
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bftledger import errors
from bftledger.errors import ProtocolError
from bftledger.fuzz import fuzz_swap_config
from bftledger.scenario import load_scenario, run_scenario, validate_scenario
from bftledger.sim import NetConfig, Simulator

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SHIPPED = {
    fname[: -len(".json")]: load_scenario(os.path.join(SCENARIOS, fname))
    for fname in sorted(os.listdir(SCENARIOS))
}
# A value of each JSON type, for a mutation that retypes a field.
OTHER_VALUES = [None, True, -1, 3, 0.5, "x", [], ["x"], {}, {"x": 1}]


def _sites(node, path=()):
    """Every (path, node) below the root of a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,), child
            yield from _sites(child, path + (key,))


def _misspell(draw, text: str) -> str:
    at = draw(st.integers(0, len(text)))
    if text and draw(st.booleans()):
        return text[:at] + text[at + 1:] if at < len(text) else text[:-1]
    return text[:at] + draw(st.sampled_from("xe_1")) + text[at:]


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one field deleted, one value retyped, or one key or
    string value misspelled."""
    config = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    (*parents, last), node = draw(st.sampled_from(list(_sites(config))))
    parent = config
    for key in parents:
        parent = parent[key]
    how = draw(st.sampled_from(["delete", "retype", "misspell key", "misspell value"]))
    if how == "delete" and isinstance(parent, dict):
        del parent[last]
    elif how == "misspell key" and isinstance(parent, dict):
        parent[_misspell(draw, last)] = parent.pop(last)
    elif how == "misspell value" and isinstance(node, str):
        parent[last] = _misspell(draw, node)
    else:
        parent[last] = draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(node)]))
    return config


@settings(derandomize=True, max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenarios())
def test_mutated_scenario_is_config_error_or_runs(config):
    before = copy.deepcopy(config)
    built = []
    add_client = Simulator.add_client

    def counting_add_client(sim, name, script):
        built.append(name)
        add_client(sim, name, script)

    with mock.patch.object(Simulator, "add_client", counting_add_client):
        try:
            _run, report = run_scenario(config)
        except ProtocolError as exc:
            assert exc.code == errors.CONFIG_ERROR, exc
            assert not built, f"{exc} raised after building {built}"
        else:
            assert report.audits
    assert config == before


def test_fuzz_configs_validate():
    for seed in range(300):
        validate_scenario(fuzz_swap_config(seed))


@pytest.mark.parametrize("name", ["algebra_updates", "auction_stalling_seller", "partition_heal",
                                  "swap_contested", "transfers", "transmute_assets"])
def test_run_leaves_config_unchanged(name):
    config = copy.deepcopy(SHIPPED[name])
    run_scenario(config)
    assert config == SHIPPED[name]


def test_validate_fills_defaults_and_ids():
    spec = validate_scenario(SHIPPED["swap_confirm"])
    swap = spec["actions"][0]
    assert (swap["id"], swap["broker"], swap["drivers"]) == ("swap0", 1, [1])
    assert swap["owner2_delay"] == 0.2
    assert swap["lock_wait_seconds"] == 4000 and swap["deadline_seconds"] is None
    assert spec["net"].xshard_dup == 0.05 and spec["faults"]["crash"] == {}


def test_net_fields_reach_their_netconfig_fields():
    net = {"min_delay_ms": 1, "max_delay_ms": 2, "drop": 0.25, "dup": 0.5, "gst_seconds": 3,
           "gst_bound_ms": 4, "xshard_min_ms": 5, "xshard_max_ms": 6, "xshard_dup": 0.75}
    assert validate_scenario({"version": 1, "net": net})["net"] == NetConfig(
        min_delay=1, max_delay=2, drop=0.25, dup=0.5, gst=3000, gst_bound=4,
        xshard_min=5, xshard_max=6, xshard_dup=0.75)


@pytest.mark.parametrize("edit, message", [
    ({"actions": [{"kind": "transfer", "from": "a", "to": "a", "value": 1, "vlaue": 2}]},
     "actions[0]: unknown field 'vlaue'"),
    ({"actions": [{"kind": "transfer", "from": "a", "to": "b", "value": 1}]},
     "actions[0].to: unknown account 'b'"),
    ({"actions": [{"kind": "apply", "from": "a", "to": "a", "u_minus": {"scalar": -1},
                   "u_plus": {"side": 0, "inner": {"item": "6", "delta": 1}}}]},
     "actions[0].u_plus.inner.item must be a string of hex digit pairs, got '6'"),
    ({"faults": {"outages": {"1": [[0.5]]}}}, "faults.outages.1[0] must be a list of 2 to 2 items, got [0.5]"),
    ({"faults": {"crash": {"4": 1.0}}}, "faults.crash: unknown authority 4"),
    ({"committee": {"n": 7}, "faults": {"arbitrary_signer": [0, 1, 2]}},
     "faults: more byzantine authorities than f, for n=7"),
    ({"actions": [{"kind": "change_key", "account": "a"}, {"kind": "change_key", "account": "a",
                                                           "id": "change_key0"}]},
     "duplicate action id 'change_key0'"),
    ({"accounts": [{"name": "a"}, {"name": "a"}]}, "duplicate account 'a'"),
    ({"committee": {"n": 5}}, "committee.n must be 3f+1 for an integer f > 0, got 5"),
])
def test_error_names_the_field(edit, message):
    config = dict({"version": 1, "accounts": [{"name": "a"}]}, **edit)
    with pytest.raises(ProtocolError) as info:
        validate_scenario(config)
    assert info.value.code == errors.CONFIG_ERROR
    assert message in str(info.value)


def test_load_scenario_only_decodes(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"version": 99}))
    assert load_scenario(str(path)) == {"version": 99}
