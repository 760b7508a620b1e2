"""Exhaustive exploration of ARM/POWER-style relaxed memory models.

The TSO/PSO explorer (:mod:`repro.memmodel.storebuf`) models
store-side relaxation only (FIFO / per-address store buffers). ARMv7
and POWER additionally reorder the *load* side: a later load may be
satisfied before an earlier one (``r->r``), which is what makes
unfenced message passing break on real hardware even though it is
TSO-safe. This explorer composes two bounded mechanisms:

* **Grouped per-address store buffers** (``w->w`` / ``w->r``): the
  buffers of :mod:`repro.memmodel.storebuf`, shared with TSO/PSO. Like
  PSO, differently-addressed stores drain in any order *within a
  group*. A store-ordering fence flavor (``lwsync``, ``dmbst``,
  ``eieio``) seals the current group — groups drain oldest-first, so
  pre-fence stores reach memory before post-fence stores — without
  waiting for a drain the way a full fence (``sync``, ``dmb``, generic
  FULL) must.
* **Bounded stale reads** (``r->r`` / ``r->w``): memory keeps one
  previous value per address, and each thread tracks the addresses it
  has observed at their current version. A load of an unobserved
  address may nondeterministically return the previous value — the
  operational image of a load satisfied early out of a stale cache
  line. Per-location coherence holds: once a thread reads the current
  value it can never read the older one. A fence flavor killing
  ``r->r`` marks every address observed, forcing fresh reads.

Load buffering proper (the LB litmus shape) is *not* producible: a
load's value is needed to continue executing, so it can never be
delayed past a dependent store. The model is therefore slightly
stronger than the ISA on pure ``r->w``; placement still fences those
delays (the machine model declares them reorderable), the explorer
just cannot witness their absence — the conservative direction.

RMWs are LL/SC-style: they act on coherent memory (own buffered stores
to the same address must drain first) but carry no implicit barrier —
``rmw_is_full_fence=False`` on these models, so the placement
machinery fences around them rather than leaning on them.

Fence flavors resolve through the explorer's arch backend
(:mod:`repro.arch.backend`); a flavor the backend does not know (a
cross-compiled program) conservatively acts as a full fence.

State is bounded like PSO's: buffers are finite because programs are,
and the stale dimension holds at most one old value per address.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.backend import ALL_KINDS, get_backend
from repro.core.machine_models import OrderKind
from repro.ir.function import Program
from repro.ir.instructions import Fence, FenceKind
from repro.memmodel import storebuf
from repro.memmodel.explore import (
    LOCAL_FP,
    CoreExplorer,
    Footprint,
    Transition,
)
from repro.memmodel.interpreter import ExecutionError, ThreadState
from repro.memmodel.sc import Outcome, make_outcome


class RelaxedExplorer(CoreExplorer):
    """DPOR DFS over the relaxed state graph for one arch backend.

    State = (memory, prev, threads, buffers, fresh)."""

    MODEL_KEY = "relaxed"
    #: Arch whose flavor catalog gives fences their kill-sets.
    arch = "arm"
    #: This explorer gives flavored fences their declared (weaker)
    #: kill-set semantics, so differential validation of *flavored*
    #: placements is meaningful here. Flavor-blind explorers (TSO/PSO
    #: treat every full fence as mfence-strength) must not claim this,
    #: or the oracle would validate flavor selections it cannot model.
    HONORS_FLAVORS = True

    def __init__(
        self,
        program: Program,
        max_states: Optional[int] = None,
        max_steps_per_thread: int = 100_000,
        observe_globals: Optional[list[str]] = None,
        **core_opts,
    ) -> None:
        super().__init__(
            program,
            max_states,
            max_steps_per_thread,
            observe_globals,
            **core_opts,
        )
        self.backend = get_backend(self.arch)

    # --- fence semantics --------------------------------------------------
    def _fence_kills(self, inst: Fence) -> frozenset[OrderKind]:
        if inst.kind is not FenceKind.FULL:
            return frozenset()
        if inst.flavor is None:
            return ALL_KINDS
        if self.backend.has_flavor(inst.flavor):
            return self.backend.flavor(inst.flavor).kills
        return ALL_KINDS  # foreign flavor: act as a full fence

    # --- state plumbing ---------------------------------------------------
    def initial_state(self) -> tuple:
        threads = tuple(self.executor.start_all())
        return (
            self.layout.initial_memory(),
            {},  # prev: one stale candidate value per address
            threads,
            tuple(() for _ in threads),
            tuple(frozenset() for _ in threads),
        )

    def threads_of(self, state: tuple) -> tuple[ThreadState, ...]:
        return state[2]

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        memory, prev, _threads, buffers, fresh = state
        shared = (
            tuple(sorted(memory.items())),
            tuple(sorted(prev.items())),
        )
        parts = tuple(
            (buffers[i], tuple(sorted(fresh[i]))) for i in range(len(buffers))
        )
        return shared, parts

    def buffered_addrs(self, state: tuple, tid: int) -> frozenset[int]:
        return storebuf.addresses(state[3][tid])

    def outcome_of(self, state: tuple) -> Outcome:
        memory, _prev, threads, _buffers, _fresh = state
        return make_outcome(self.layout, memory, threads, self.observe_globals)

    def check_final(self, state: tuple) -> None:
        if not all(storebuf.empty(b) for b in state[3]):  # pragma: no cover
            raise ExecutionError("deadlock with non-empty buffer")

    @staticmethod
    def _publish(
        prev: dict[int, int],
        memory: dict[int, int],
        fresh: list[frozenset[int]],
        writer: int,
        addr: int,
        value: int,
    ) -> None:
        """Make ``value`` the current value of ``addr`` (written by
        thread ``writer``): the old value becomes the stale candidate,
        every *other* thread loses its has-seen-current mark, and the
        writer (who must never read older than its own store) gains it.
        """
        prev[addr] = memory.get(addr, 0)
        memory[addr] = value
        for t in range(len(fresh)):
            if t == writer:
                fresh[t] = fresh[t] | {addr}
            else:
                fresh[t] = fresh[t] - {addr}

    # --- transitions ------------------------------------------------------
    def transitions(self, state: tuple) -> list[Transition]:
        memory, prev, threads, buffers, fresh = state
        out: list[Transition] = []

        # (a) drains: addresses drain independently (PSO-style),
        # groups in order (store-fence seals).
        for i, buffer in enumerate(buffers):
            for addr, value, after in storebuf.drains(buffer):
                new_memory = dict(memory)
                new_prev = dict(prev)
                new_fresh = list(fresh)
                self._publish(new_prev, new_memory, new_fresh, i, addr, value)
                new_buffers = buffers[:i] + (after,) + buffers[i + 1 :]
                out.append(
                    Transition(
                        ("f", i, addr),
                        i,
                        False,
                        self._addr_fp(addr, writes=True),
                        (
                            (
                                new_memory,
                                new_prev,
                                threads,
                                new_buffers,
                                tuple(new_fresh),
                            ),
                        ),
                    )
                )

        # (b) thread steps.
        for i, ts in enumerate(threads):
            if ts.done:
                continue
            t = self._step(state, i)
            if t is not None:
                out.append(t)
        return out

    def _step(self, state: tuple, i: int) -> Optional[Transition]:
        """Thread ``i``'s next action as one transition (several
        successors for a load with a stale-value choice); None when
        blocked (RMW/full fence waiting on the buffer)."""
        memory, prev, threads, buffers, fresh = state
        advanced, clone, pending = self._advance(threads, i)

        if pending is None:
            return Transition(
                ("t", i),
                i,
                True,
                LOCAL_FP,
                ((memory, prev, advanced, buffers, fresh),),
            )

        buffer = buffers[i]

        if pending.kind == "load":
            addr = pending.addr
            # An acquire load orders itself before every later access
            # of its thread: like a stale-killing fence immediately
            # after it, no post-acquire read may be satisfied stale
            # (r->r / r->w killed). The acquire itself may still read
            # the stale value — acquire means "ordered", not "latest".
            acquire = pending.inst.ordering == "acquire"  # type: ignore[union-attr]
            forwarded = storebuf.forward(buffer, addr)
            choices: list[tuple[int, bool]] = []  # (value, marks_fresh)
            if forwarded is not None:
                choices.append((forwarded, False))
            else:
                current = memory.get(addr, 0)
                choices.append((current, True))
                if addr in prev and addr not in fresh[i] and prev[addr] != current:
                    choices.append((prev[addr], False))
            successors = []
            for n, (value, marks_fresh) in enumerate(choices):
                # Last choice commits on the advanced clone itself;
                # earlier ones re-clone it instead of replaying the
                # invisible prefix.
                if n == len(choices) - 1:
                    new_threads, target = advanced, clone
                else:
                    target = clone.clone()
                    new_threads = (
                        advanced[:i] + (target,) + advanced[i + 1 :]
                    )
                self.executor.commit(target, pending, value)
                new_fresh = fresh
                marks = fresh[i]
                if marks_fresh:
                    marks = marks | {addr}
                if acquire:
                    marks = marks | frozenset(prev)
                if marks is not fresh[i]:
                    new_fresh = fresh[:i] + (marks,) + fresh[i + 1 :]
                successors.append((memory, prev, new_threads, buffers, new_fresh))
            # Forwarded loads still count as shared reads for reduction
            # purposes: forwarding status flips once the own buffer
            # drains, so an "invisible" classification would hide the
            # dependence on rival writes landing after the drain.
            fp = self._addr_fp(addr, reads=True)
            if acquire and not fp.top:
                # Like the stale-killing fence: observes the whole
                # previous-value map, so it orders against every publish.
                fp = Footprint(reads=fp.reads, global_read=True)
            return Transition(("t", i), i, True, fp, tuple(successors))

        if pending.kind == "store":
            # A release store seals the current store group first, like
            # a store-ordering fence immediately before it: every
            # earlier buffered store publishes before this one (w->w
            # killed). Earlier reads already committed — this machine
            # cannot delay a satisfied read past a later store (see the
            # LB note above) — so sealing is the entire obligation; the
            # release itself stays buffered (w->r remains relaxed).
            if pending.inst.ordering == "release":  # type: ignore[union-attr]
                buffer = storebuf.seal(buffer)
            new_buffers = (
                buffers[:i]
                + (storebuf.append(buffer, pending.addr, pending.value),)
                + buffers[i + 1 :]
            )
            self.executor.commit(clone, pending)
            return Transition(
                ("t", i),
                i,
                True,
                LOCAL_FP,
                ((memory, prev, advanced, new_buffers, fresh),),
            )

        if pending.kind == "rmw":
            # LL/SC-style: needs the coherent current value, so own
            # buffered stores to this address must drain first — but no
            # implicit barrier: the rest of the buffer stays put.
            if storebuf.holds(buffer, pending.addr):
                return None
            new_memory = dict(memory)
            new_prev = dict(prev)
            new_fresh = list(fresh)
            old = new_memory.get(pending.addr, 0)
            result, new = pending.rmw_result(old)
            if new is not None:
                self._publish(
                    new_prev, new_memory, new_fresh, i, pending.addr, new
                )
            else:
                new_fresh[i] = new_fresh[i] | {pending.addr}
            self.executor.commit(clone, pending, result)
            return Transition(
                ("t", i),
                i,
                True,
                self._addr_fp(pending.addr, reads=True, writes=True),
                ((new_memory, new_prev, advanced, buffers, tuple(new_fresh)),),
            )

        if pending.kind == "fence":
            kills = self._fence_kills(pending.inst)  # type: ignore[arg-type]
            if OrderKind.WR in kills and not storebuf.empty(buffer):
                return None  # full fence: wait for the buffer to drain
            new_buffers = buffers
            if OrderKind.WW in kills and OrderKind.WR not in kills:
                new_buffers = buffers[:i] + (storebuf.seal(buffer),) + buffers[i + 1 :]
            new_fresh = fresh
            stale_kill = OrderKind.RR in kills or OrderKind.RW in kills
            if stale_kill:
                # No pre-fence read may be satisfied stale anymore.
                new_fresh = (
                    fresh[:i] + (fresh[i] | frozenset(prev),) + fresh[i + 1 :]
                )
            self.executor.commit(clone, pending)
            # A stale-killing fence observes the whole previous-value
            # map, so it orders against every publish; a seal-only or
            # no-op fence is invisible to other threads.
            fp = Footprint(global_read=True) if stale_kill else LOCAL_FP
            return Transition(
                ("t", i),
                i,
                True,
                fp,
                ((memory, prev, advanced, new_buffers, new_fresh),),
            )

        raise ExecutionError(f"unknown action {pending.kind}")  # pragma: no cover


class ARMExplorer(RelaxedExplorer):
    """ARMv7-style relaxed exploration (``dmb`` flavor catalog)."""

    MODEL_KEY = "arm"
    arch = "arm"


class POWERExplorer(RelaxedExplorer):
    """POWER relaxed exploration (``sync``/``lwsync``/``eieio`` catalog)."""

    MODEL_KEY = "power"
    arch = "power"
