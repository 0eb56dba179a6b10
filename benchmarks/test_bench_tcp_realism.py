"""TCP-realism check: policy conformance under closed-loop TCP.

Not a paper figure — a validity check for the whole reproduction: the
paper's experiments ran real TCP, our headline figures run backlogged
CBR, and this bench shows the two agree. The motivation policy's
sharing regime (NC pinned at 2 G; WS/KVS/ML hungry TCP flows) must
land every class within a few percent of its policy target.
"""

from dataclasses import replace

from conftest import run_once

from repro.experiments import tcp_realism


def test_tcp_conformance(benchmark, emit):
    result = run_once(benchmark, tcp_realism.run)
    emit(replace(
        result, title="TCP realism — motivation policy, closed-loop AIMD senders"
    ).to_table().render())

    for app in ("NC", "WS", "KVS", "ML"):
        assert abs(result.drift(app)) < 0.10, (
            f"{app} drifted {result.drift(app):+.1%} from its policy target"
        )
    # Work conservation: the link stays full despite TCP dynamics.
    assert result.total_achieved > 0.95 * result.total_target
