"""Probe bridge: the one operation between fuzzer and target.

As with a hardware debug probe, a test case goes to the target as payload
bytes, and its trace and handle-state feedback come back in one result.
The only backend here drives an in-process MiniTee instance.
"""

from __future__ import annotations

from typing import Callable

from .minitee import ExecutionResult, MiniTee, SyscallResult


class SimProbe:
    """In-process endpoint over one MiniTee instance.

    One endpoint serves one worker.  Every submit runs from the power-on
    state, so results never depend on earlier submissions.  Each result's
    per_syscall list is fresh, but the SyscallResults in it are immutable
    and may be the very objects an earlier submit returned.
    """

    def __init__(self, campaign_seed: int, templates=None):
        self.sim = MiniTee(campaign_seed, templates)

    def submit(
        self,
        payload: bytes,
        on_syscall: Callable[[int, SyscallResult], None] | None = None,
    ) -> ExecutionResult:
        result = self.sim.execute_payload(payload)
        if on_syscall is not None:
            # in-process stand-in for the streaming contract: per-syscall
            # results are delivered in execution order, and packets of call
            # i+1 are never seen before call i completes
            for idx, sr in enumerate(result.per_syscall):
                on_syscall(idx, sr)
        return result
