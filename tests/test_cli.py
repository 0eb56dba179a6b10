"""Tests for the fv command-line tool."""

import json
from pathlib import Path

import pytest

from repro.cli import main

POLICY = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 10mbit ceil 10mbit
fv class add dev eth0 parent 1:1 classid 1:10 fv weight 2 borrow 1:20
fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1
fv filter add dev eth0 parent 1: match app=A flowid 1:10
fv filter add dev eth0 parent 1: match app=B flowid 1:20
"""


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.fv"
    path.write_text(POLICY)
    return str(path)


class TestCheck:
    def test_valid_policy_ok(self, policy_file, capsys):
        assert main(["check", policy_file, "--link", "10mbit"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "3 classes" in out

    def test_invalid_policy_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.fv"
        path.write_text(POLICY + "fv filter add dev eth0 parent 1: match app=X flowid 9:9\n")
        assert main(["check", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        assert main(["check", "/nonexistent/policy.fv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.fv"
        path.write_text("fv qdisc add dev eth0 root frobnicate\n")
        assert main(["check", str(path)]) == 1


class TestShow:
    def test_prints_tree(self, policy_file, capsys):
        assert main(["show", policy_file, "--link", "10mbit"]) == 0
        out = capsys.readouterr().out
        assert "1:10" in out and "1:20" in out
        assert "θ=" in out


class TestSimulate:
    def test_enforces_weighted_split(self, policy_file, capsys):
        code = main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=20mbit", "--app", "B=20mbit",
            "--duration", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "A" in out and "B" in out and "total" in out

    def test_requires_an_app(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", policy_file])
        assert "--app" in str(excinfo.value)

    def test_rejects_malformed_app_spec(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", policy_file, "--app", "nonsense"])
        assert "NAME=RATE" in str(excinfo.value)
        assert "'nonsense'" in str(excinfo.value)

    def test_rejects_duplicate_app_names(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", policy_file,
                "--app", "A=2mbit", "--app", "A=4mbit",
            ])
        assert "duplicate app name 'A'" in str(excinfo.value)

    def test_rejects_bad_rate_suffix(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", policy_file, "--app", "A=5zbit"])
        message = str(excinfo.value)
        assert "bad rate for app 'A'" in message
        assert "zbit" in message

    def test_nic_mode_with_trace_and_metrics(self, tmp_path, capsys):
        # The DES pipeline wants a policy whose rates justify scaling.
        policy = tmp_path / "policy.fv"
        policy.write_text(POLICY.replace("10mbit", "10gbit"))
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        code = main([
            "simulate", str(policy), "--link", "10gbit",
            "--app", "A=9gbit", "--app", "B=9gbit",
            "--duration", "5", "--scale", "500",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics:" in out
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert rows, "trace JSONL must not be empty"
        kinds = {(row["source"], row["kind"]) for row in rows}
        assert ("nic.pipeline", "drop") in kinds
        assert ("core.sched", "rate_update") in kinds
        assert ("nic.tm", "queue_depth") in kinds
        snapshots = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert snapshots and snapshots[-1]["nic.submitted"] > 0
        assert snapshots[-1]["time"] == pytest.approx(5.0)

    def test_trace_implies_nic_mode(self, tmp_path, capsys):
        policy = tmp_path / "policy.fv"
        policy.write_text(POLICY.replace("10mbit", "10gbit"))
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "simulate", str(policy), "--link", "10gbit",
            "--app", "A=9gbit", "--duration", "2", "--scale", "1000",
            "--trace", str(trace_path), "--trace-limit", "50",
        ])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 50  # --trace-limit keeps the newest N

    def test_nic_mode_rejects_bad_scale(self, policy_file, capsys):
        code = main([
            "simulate", policy_file, "--nic", "--app", "A=20mbit",
            "--scale", "0",
        ])
        assert code == 1
        assert "scale" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--packet-size", "0"),
        ("--packet-size", "-20"),
        ("--hosts", "0"),
        ("--shards", "0"),
        ("--link", "0bit"),
    ])
    def test_rejects_non_positive_counts(self, policy_file, capsys, flag, value):
        # Rejected before any mode runs: a zero-byte frame would never
        # advance simulated time in the DES modes, a negative one
        # divides by zero in software mode, zero hosts or shards
        # describe no world, and a zero link divides by zero in
        # software mode. The later --link wins.
        code = main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=1mbit", "--duration", "1", flag, value,
        ])
        assert code == 1
        expected = "must be positive" if flag == "--link" else "must be at least 1"
        assert f"fv: error: {flag} {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--scale", "--duration", "--wire-delay"])
    def test_rejects_non_finite_floats(self, policy_file, capsys, flag, value):
        # argparse's float() accepts both. Unchecked, a non-finite
        # duration never ends a run loop, and a non-finite scale or
        # wire delay runs a meaningless simulation or raises.
        code = main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=1mbit", "--duration", "1", flag, value,
        ])
        assert code == 1
        assert f"fv: error: {flag} must be finite" in capsys.readouterr().err

    def test_zero_rate_app_reports_nothing_achieved(self, policy_file, capsys):
        code = main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=0bit", "--app", "B=1mbit", "--duration", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        [line_a] = [line for line in lines if line.strip().startswith("A:")]
        assert line_a.split("achieved")[1].strip() == "0bit"

    def test_achieved_rates_respect_policy(self, policy_file, capsys):
        main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=20mbit", "--app", "B=20mbit",
            "--duration", "20",
        ])
        out = capsys.readouterr().out
        # Parse the achieved column for app A: ~6.5 Mbit (2/3 of 9.7).
        for line in out.splitlines():
            if line.strip().startswith("A:"):
                achieved = line.split("achieved")[1].strip()
                value = float(achieved.replace("Mbit", ""))
                assert 5.5 < value < 7.5
                break
        else:
            pytest.fail(f"no per-app line in output:\n{out}")


class TestSimulateScheduler:
    """fv simulate --scheduler NAME: the crossbar DES runtime."""

    @pytest.fixture
    def policy_10g(self, tmp_path):
        path = tmp_path / "policy.fv"
        path.write_text(POLICY.replace("10mbit", "10gbit"))
        return str(path)

    def test_crossbar_scheduler_runs(self, policy_10g, capsys):
        code = main([
            "simulate", policy_10g, "--link", "10gbit",
            "--app", "A=9gbit", "--app", "B=9gbit",
            "--duration", "2", "--scale", "500",
            "--scheduler", "wfq", "--backend", "eiffel",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler=wfq" in out and "backend=eiffel" in out
        assert "port[wfq[eiffel]]" in out
        assert "total" in out

    def test_default_scheduler_path_unchanged(self, policy_file, capsys):
        # --scheduler flowvalve is the default route: identical output
        # shape to a plain `fv simulate`.
        code = main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=20mbit", "--duration", "5",
            "--scheduler", "flowvalve",
        ])
        assert code == 0
        assert "achieved" in capsys.readouterr().out

    def test_scheduler_excludes_trace(self, policy_10g, tmp_path, capsys):
        code = main([
            "simulate", policy_10g, "--link", "10gbit",
            "--app", "A=9gbit", "--duration", "2", "--scale", "500",
            "--scheduler", "wfq", "--trace", str(tmp_path / "t.jsonl"),
        ])
        assert code == 1
        assert "flowvalve" in capsys.readouterr().err

    def test_unknown_scheduler_reported(self, policy_10g, capsys):
        code = main([
            "simulate", policy_10g, "--link", "10gbit",
            "--app", "A=9gbit", "--duration", "1", "--scale", "500",
            "--scheduler", "cake",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "cake" in err and "registered" in err


MOTIVATION = str(Path(__file__).resolve().parents[1] / "examples" / "motivation.fv")
MOTIVATION_APPS = [
    "--link", "10gbit",
    "--app", "NC=2gbit", "--app", "WS=9gbit", "--app", "KVS=9gbit", "--app", "ML=9gbit",
]

#: ``fv simulate`` stdout per mode on the motivation policy: the
#: software loop (no mode flag), the single-domain modes (``--nic``,
#: ``--scheduler``), the sharded fabric and the trace workload.
#: Everything printed is deterministic for the seed (the fabric's wall
#: clock goes to stderr).
GOLDEN_SIMULATE = {
    "software": (MOTIVATION_APPS + ["--duration", "0.1"], """\
simulated 0.1s at link 10.00Gbit:
       KVS: offered     9.00Gbit  achieved     3.18Gbit
        ML: offered     9.00Gbit  achieved     2.04Gbit
        NC: offered     2.00Gbit  achieved     2.00Gbit
        WS: offered     9.00Gbit  achieved     2.58Gbit
     total:     9.80Gbit
"""),
    "nic": (MOTIVATION_APPS + ["--duration", "2", "--scale", "1000", "--nic"], """\
simulated 2.0s at link 10.00Gbit (nic mode, scale=1/1000, seed=7):
       KVS: offered     9.00Gbit  achieved     3.03Gbit
        ML: offered     9.00Gbit  achieved     3.04Gbit
        NC: offered     2.00Gbit  achieved   678.00Mbit
        WS: offered     9.00Gbit  achieved     3.04Gbit
     total:     9.79Gbit
  NIC: submitted=4837 forwarded=3279 dropped=1533 (queue_full=1533) tx_ring_max=1644 buffers_min_free=11473
"""),
    "wfq-eiffel": (MOTIVATION_APPS + [
        "--duration", "2", "--scale", "1000", "--scheduler", "wfq", "--backend", "eiffel",
    ], """\
simulated 2.0s at link 10.00Gbit (scheduler=wfq, backend=eiffel, scale=1/1000, seed=7):
       KVS: offered     9.00Gbit  achieved     2.96Gbit
        ML: offered     9.00Gbit  achieved     2.95Gbit
        NC: offered     2.00Gbit  achieved   966.00Mbit
        WS: offered     9.00Gbit  achieved     2.99Gbit
     total:     9.86Gbit
  port[wfq[eiffel]]: in=4837 tx=1645 drop=2168 backlog=1024
  wfq[eiffel]: enq=2669 deq=1645 drop=2168 (evicted=0, unclassified=0) backlog=1024
"""),
    "htb": (MOTIVATION_APPS + ["--duration", "2", "--scale", "1000", "--scheduler", "htb"], """\
simulated 2.0s at link 10.00Gbit (scheduler=htb, backend=pifo, scale=1/1000, seed=7):
       KVS: offered     9.00Gbit  achieved     2.45Gbit
        ML: offered     9.00Gbit  achieved     3.06Gbit
        NC: offered     2.00Gbit  achieved     1.94Gbit
        WS: offered     9.00Gbit  achieved     2.41Gbit
     total:     9.86Gbit
  port[htb]: in=4837 tx=1645 drop=142 backlog=3050
  htb: enq=4695 deq=1645 drop=142 (evicted=0, unclassified=0) backlog=3050
"""),
    "fabric": (MOTIVATION_APPS + [
        "--duration", "2", "--scale", "2000", "--hosts", "4", "--shards", "2",
    ], """\
simulated 2.0s at link 10.00Gbit (fabric: 4 hosts, scale=1/2000, seed=7):
       KVS: offered     9.00Gbit/host  achieved    11.44Gbit aggregate
        ML: offered     9.00Gbit/host  achieved    11.44Gbit aggregate
        NC: offered     2.00Gbit/host  achieved     2.56Gbit aggregate
        WS: offered     9.00Gbit/host  achieved    11.44Gbit aggregate
     total:    36.86Gbit
  delivered=3072 drops=0/9674 windows=20
"""),
    "workload": ([
        "--link", "10gbit", "--workload", "kvs", "--app", "KVS=2gbit", "--app", "WS=1gbit",
        "--duration", "2", "--scale", "200",
    ], """\
simulated 2.0s at link 10.00Gbit (workload=kvs, scale=1/200, seed=7):
       KVS: offered     2.00Gbit  achieved     1.97Gbit
        WS: offered     1.00Gbit  achieved     1.07Gbit
     total:     3.04Gbit
  flows: started=3893 completed=3891 windows=2
  delay: p50=16.2us p99=18.2us (nominal, sketch)
  NIC: submitted=5089 forwarded=5081 dropped=0 (none) tx_ring_max=5 buffers_min_free=13129
"""),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SIMULATE))
def test_simulate_stdout_golden(mode, capsys):
    argv, expected = GOLDEN_SIMULATE[mode]
    assert main(["simulate", MOTIVATION] + argv) == 0
    assert capsys.readouterr().out == expected


def test_software_mode_caps_at_the_link(capsys):
    # The motivation policy's root runs at 10 Gbit; forwarded frames
    # still leave on a 5 Mbit --link, as they do in --nic mode.
    assert main([
        "simulate", MOTIVATION, "--link", "5mbit", "--app", "NC=1gbit", "--duration", "1",
    ]) == 0
    assert capsys.readouterr().out == """\
simulated 1.0s at link 5.00Mbit:
        NC: offered     1.00Gbit  achieved     5.00Mbit
     total:     5.00Mbit
"""
