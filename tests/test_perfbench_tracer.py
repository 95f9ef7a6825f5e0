"""perfbench's layer tracer against the current package.

The throughput benchmark (``perfbench/``) times each layer by rebinding
names inside ``repro`` (see ``perfbench/tracer.py``).  A rename or
deletion of any of them breaks every traced benchmark run, so this
tier-1 test installs the tracer, runs one small simulation through it,
and checks that uninstalling puts every binding back.
"""

from perfbench.tracer import Tracer, install_layer_spans

from repro import SimParams, simulate


def test_layer_tracer_wraps_and_restores_every_binding():
    tracer = Tracer()
    install_layer_spans(tracer)
    patched = list(tracer._undo)
    try:
        rebound = [getattr(owner, attr) is not original for owner, attr, original in patched]
        simulate("spc_fp", SimParams(warmup_instructions=500, sim_instructions=1_500))
    finally:
        tracer.uninstall()
    assert patched and all(rebound)
    assert tracer.counts["build.sims"] == tracer.counts["kernel.typed_runs"] == 1
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
