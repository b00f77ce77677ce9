"""The command-line interface: run, audit, modelcheck."""

import json
import os

import pytest

from bftledger.cli import main

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIOS, f"{name}.json")


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", scenario_path("transfers"), "--out", str(out),
    ])
    assert code == 0
    assert (out / "trace.bin").stat().st_size > 0
    assert (out / "report.txt").exists()
    for i in range(4):
        assert (out / f"snapshot_auth_{i}.txt").exists()
    stdout = capsys.readouterr().out
    assert "PASS conservation" in stdout


def test_run_json_format(capsys):
    code = main([
        "run", "--scenario", scenario_path("transfers"), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "transfers"
    assert all(a["passed"] for a in payload["audits"])


def test_run_seed_override_changes_trace(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", scenario_path("transfers"), "--out", str(out1), "--seed", "1"])
    main(["run", "--scenario", scenario_path("transfers"), "--out", str(out2), "--seed", "2"])
    assert (out1 / "trace.bin").read_bytes() != (out2 / "trace.bin").read_bytes()


def test_audit_command(capsys):
    code = main(["audit", "--scenario", scenario_path("partition_heal")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS eventual_consistency" in stdout


def test_modelcheck_command(capsys):
    code = main(["modelcheck", "--rounds", "1", "--byzantine", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline"]["violation"] is False


@pytest.mark.parametrize("flag", ["--rounds", "--byzantine"])
def test_modelcheck_negative_bound_exit_code(capsys, flag):
    code = main(["modelcheck", flag, "-1"])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


def test_modelcheck_ablation_exit_code(capsys):
    # an ablated rule that still finds a violation is the expected outcome
    code = main(["modelcheck", "--rounds", "1", "--byzantine", "0", "--ablate", "a"])
    assert code == 0
    assert "VIOLATION" in capsys.readouterr().out


# case -> (shipped scenario, path to the field, new value or DELETE)
DELETE = object()
BAD_EDITS = {
    "unknown_to": ("transfers", ("actions", 0, "to"), "nobody"),
    "unknown_owner": ("transfers", ("accounts", 2, "owner"), "ghost"),
    "missing_value": ("transfers", ("actions", 0, "value"), DELETE),
    "unknown_rule": ("auction_second_price", ("actions", 0, "rule"), "secnd_price"),
    "unknown_broker": ("swap_confirm", ("actions", 0, "broker"), "owner3"),
    "unknown_behavior": ("swap_confirm", ("actions", 0, "owner1_behavior"), "flipflop"),
    "unknown_desired": ("swap_confirm", ("actions", 0, "owner1_desired"), "confrim"),
    "unknown_driver": ("swap_confirm", ("actions", 0, "drivers"), [3]),
    "no_driver": ("swap_confirm", ("actions", 0, "drivers"), []),
    "drivers_not_list": ("swap_confirm", ("actions", 0, "drivers"), "12"),
    "n_not_int": ("transfers", ("committee",), {"n": "4"}),
    "transmute_no_inputs": ("transmute_assets", ("actions", 0, "inputs"), []),
    "transmute_short_data": ("transmute_assets", ("actions", 0, "data"), ["636174"]),
    "transmute_bad_hex": ("transmute_assets", ("actions", 0, "data"), ["636174", "zz"]),
    "byzantine_unknown": ("swap_byzantine", ("faults", "arbitrary_signer"), [9]),
    "crash_unknown": ("swap_crash_fault", ("faults", "crash"), {"4": 0.05}),
    "crash_not_int": ("swap_crash_fault", ("faults", "crash"), {"x": 1.0}),
    "crash_not_number": ("swap_crash_fault", ("faults", "crash"), {"2": "soon"}),
    "repeat_not_int": ("transmute_assets", ("actions", 0, "repeat"), "x"),
    "drop_not_number": ("transfers", ("net", "drop"), "x"),
    "balance_not_int": ("transfers", ("accounts", 0, "balance"), "x"),
    "faults_not_object": ("swap_crash_fault", ("faults",), []),
    "repeat_zero": ("transmute_assets", ("actions", 0, "repeat"), 0),
    "repeat_negative": ("transmute_assets", ("actions", 0, "repeat"), -1),
    "outage_not_pair": ("partition_heal", ("faults", "outages"), {"3": [[1, 2, 3]]}),
    "update_item_not_hex": ("algebra_updates", ("actions", 2, "u_plus", "item"), "zz"),
    "net_not_object": ("transfers", ("net",), "fast"),
    "accounts_not_list": ("transfers", ("accounts",), "alice"),
    "bidders_not_list": ("auction_second_price", ("actions", 0, "bidders"), "dan"),
    "action_not_object": ("transfers", ("actions", 0), ["transfer"]),
    "id_not_string": ("transfers", ("actions", 0, "id"), ["t"]),
    "delays_reversed": ("transfers", ("net", "min_delay_ms"), 500),
    "gst_bound_below_min": ("swap_contested", ("net", "gst_bound_ms"), 5),
    "xshard_delays_reversed": ("transfers", ("net", "xshard_min_ms"), 100),
    "unknown_field": ("swap_confirm", ("actions", 0, "owner2_behaviour"), "no_lock"),
    "duplicate_id": ("transfers", ("actions", 1, "id"), "transfer0"),
    "parity_not_bool": ("swap_liveness_parity", ("consensus", "parity_leader"), "no"),
    "value_out_of_range": ("transfers", ("actions", 0, "value"), 2**70),
    "bid_out_of_range": ("auction_second_price", ("actions", 0, "bidders", 0, "bid"), -5),
    "budget_too_large": ("transfers", ("budget_seconds",), 10**400),
    "fexec_not_utf8": ("transmute_assets", ("actions", 0, "fexec"), "\ud800"),
    "withhold_above_one": ("swap_confirm", ("faults",), {"withhold_votes": {"1": 2.0}}),
    "start_negative": ("transfers", ("actions", 0, "start"), -5.0),
}


def bad_config(case):
    if case == "bad_version":
        return {"version": 99}
    name, (*parents, field), value = BAD_EDITS[case]
    with open(scenario_path(name)) as fh:
        config = json.load(fh)
    target = config
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[field]
    else:
        target[field] = value
    return config


@pytest.mark.parametrize("case", ["bad_version", *BAD_EDITS])
def test_bad_scenario_rejected(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_config(case)))
    code = main(["run", "--scenario", str(bad)])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["{\"version\": 1,", None])
def test_unreadable_scenario_rejected(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    code = main(["run", "--scenario", str(path)])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err
