"""Functional fast-forward warmup.

The warmup window exists only to train state: BTB (and the two-level
hierarchy), direction predictors, ITTAGE, the loop predictor, the
architectural history/RAS, the I-caches, and the dedicated prefetcher's
commit-stream hook.  None of that training depends on *timing* -- the
:class:`~repro.core.backend.CommitTrainer` replays committed branches
in program order regardless of how many cycles the pipeline spent
between them.  ``warmup_mode="functional"`` therefore replays the
oracle stream directly through the trainer, warms the memory-side
structures from the committed footprint, and hands the cycle-accurate
loop a machine that starts *at* the measurement boundary, skipping FTQ
/ fetch / backend / MSHR modelling for the entire warmup window.

What is identical to cycle-accurate warmup:

* every predictor/BTB/ITTAGE/loop/history/RAS training event, in the
  same commit order (the trainer is shared code, not a re-implementation);
* the committed-instruction count at the boundary, and the measured
  window that follows it;
* the prefetcher's commit-branch training (``on_commit_branch``).

What differs (bounded, second-order -- see docs/PERFORMANCE.md):

* L1I/I-TLB contents are warmed from the *committed* footprint, so
  wrong-path fills from warmup-window mispredictions are absent;
* the FTQ/decode queue start empty and the prediction pipeline refills
  through one re-steer, instead of starting mid-flight;
* the prefetcher's demand-access/fill observations from the warmup
  window are absent (its queue is cleared at the boundary so the
  measured prefetch-usefulness partition stays exact).

The measured-IPC agreement between the two modes is pinned to within
2% on every catalogue workload by ``tests/test_warmup.py``.
"""

from __future__ import annotations

from repro.trace.fbmeta import stream_meta


def functional_warmup(sim) -> None:
    """Fast-forward ``sim`` through its warmup window architecturally.

    Must run before the first cycle of :meth:`Simulator.run`; the
    caller is expected to invoke ``sim._begin_measurement()`` right
    after, so the cycle-accurate loop starts measuring at cycle 0.
    """
    warmup = sim.params.warmup_instructions
    if warmup <= 0:
        return

    # 1. Replay the committed stream through the shared commit trainer:
    #    BTB insertion policy, direction predictors, ITTAGE, the loop
    #    predictor, architectural RAS/history, and the prefetcher's
    #    on_commit_branch hook all train exactly as they would at the
    #    backend's commit stage.
    trainer = sim.trainer
    trainer.advance(warmup)
    sim.backend.committed = warmup
    sim.stats.bump("committed_instructions", warmup)

    # 2. Warm the instruction-side memory state from the committed
    #    footprint: every line and page the warmup window executed.
    #    (L2 residency is already established by _prewarm_l2; the L1I
    #    LRU state converges to the most recently executed segments,
    #    like the tail of a cycle-accurate warmup without its
    #    wrong-path fills.)
    #    The footprint is precompiled per stream/geometry
    #    (StreamMeta.warm_footprint) as two flat address lists -- all
    #    lines in segment order, then all pages in segment order.  The
    #    L1I and the I-TLB never interact, and per-structure replay
    #    order is preserved, so the split replay leaves both (LRU state
    #    included) exactly as the per-segment interleaved walk did.
    memory = sim.memory
    itlb = memory.itlb
    stream = sim.stream
    last_seg = stream.segment_at_instruction(warmup - 1)
    lines, pages = stream_meta(stream).warm_footprint(
        last_seg, sim.params.memory.line_bytes, itlb.page_bytes
    )
    fill = memory.l1i.fill
    for line in lines:
        fill(line)
    translate = itlb.translate
    for page in pages:
        translate(page)

    # 3. Synchronise speculative state with the trained architectural
    #    state, exactly like a pipeline-flush recovery at the boundary,
    #    and drop the prefetch requests the warmup left queued.
    if sim.loop is not None:
        sim.loop.flush_spec()
    if sim.prefetcher is not None:
        sim.prefetcher.reset_queue()
    bpu = sim.bpu
    bpu.ras.copy_from(trainer.arch_ras)
    seg_idx, commit_pc = trainer.resume_point()
    bpu.resteer(commit_pc, trainer.arch_hist, seg_idx, sim.cycle, reason="warmup")
