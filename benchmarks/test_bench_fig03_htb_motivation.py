"""E-F3 — regenerate Figure 3: kernel HTB mis-enforcing the
motivation policy.

Shape assertions (the paper's three observations):

1. NC's service is *inaccurate* even while NC is alone — its rate
   wobbles around (and across) the 10 Gbit ceiling instead of sitting
   cleanly on it, unlike FlowValve's flat line in Fig. 11(a);
2. total throughput between 15 s and 45 s exceeds the 10 Gbit ceiling;
3. KVS and ML split their share ~equally despite the priority setting.
"""

from conftest import run_once

from repro.experiments import fig03


def test_fig03_kernel_htb_motivation(benchmark, emit):
    result = run_once(benchmark, fig03.run)
    emit(result.to_table().render() + f"\n[{result.notes}]")

    # Observation 1: NC's lone-phase rate is inaccurate — bins wobble
    # by hundreds of Mbit and stray across the configured ceiling.
    nc_bins = [result.mean_rate("NC", t, t + 5) for t in (0, 5, 10)]
    assert max(nc_bins) - min(nc_bins) > 0.03 * 10e9
    assert any(abs(b - 10e9) > 0.015 * 10e9 for b in nc_bins)
    assert min(nc_bins) > 0.75 * 10e9  # ...but service is not collapsed.

    # Observation 2: the 10 Gbit ceiling is overshot while contended.
    overshoot = result.total_rate(20, 45)
    assert overshoot > 1.05 * 10e9, f"expected ceiling overshoot, got {overshoot/1e9:.2f}G"

    # Observation 3: priority between KVS and ML is ignored (15-30 s).
    kvs = result.mean_rate("KVS", 20, 30)
    ml = result.mean_rate("ML", 20, 30)
    assert kvs == __import__("pytest").approx(ml, rel=0.15), (
        f"kernel HTB should split KVS/ML evenly, got {kvs/1e9:.2f}G vs {ml/1e9:.2f}G"
    )
