"""Probe bridge: the transport contract between fuzzer and target.

Mirrors what a hardware debug probe provides -- payload delivery, target
reset, trace streaming and direct memory reads -- behind an interface
small enough that a real probe backend can drop in later.  The only
backend here drives an in-process MiniTee instance.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .minitee import ExecutionResult, MiniTee, SyscallResult

CAPABILITIES = ("write_payload", "reset", "stream_trace", "read_memory")


class ProbeClosed(Exception):
    pass


class ProbeEndpoint(Protocol):
    backend_id: str
    capabilities: tuple[str, ...]

    def submit(
        self,
        payload: bytes,
        on_syscall: Callable[[int, SyscallResult], None] | None = None,
    ) -> ExecutionResult: ...

    def read_memory(self, handle_id: int, offset: int, length: int) -> bytes: ...

    def close(self) -> None: ...


class SimProbe:
    """In-process endpoint over one MiniTee instance.

    One endpoint serves one worker; submit is reset-prefixed, so results
    never depend on earlier submissions.
    """

    backend_id = "minitee-sim"
    capabilities = CAPABILITIES

    def __init__(self, campaign_seed: int, templates=None):
        self.sim = MiniTee(campaign_seed, templates)
        self._open = True

    def submit(
        self,
        payload: bytes,
        on_syscall: Callable[[int, SyscallResult], None] | None = None,
    ) -> ExecutionResult:
        if not self._open:
            raise ProbeClosed("endpoint closed")
        self.sim.reset()
        result = self.sim.execute_payload(payload)
        if on_syscall is not None:
            # in-process stand-in for the streaming contract: per-syscall
            # results are delivered in execution order, and packets of call
            # i+1 are never seen before call i completes
            for idx, sr in enumerate(result.per_syscall):
                on_syscall(idx, sr)
        return result

    def read_memory(self, handle_id: int, offset: int, length: int) -> bytes:
        if not self._open:
            raise ProbeClosed("endpoint closed")
        return self.sim.read_memory(handle_id, offset, length)

    def reset(self) -> None:
        if not self._open:
            raise ProbeClosed("endpoint closed")
        self.sim.reset()

    def close(self) -> None:
        self._open = False
