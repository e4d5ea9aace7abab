"""A test backend that replays canned responses."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from evidencesql.backends import LlmBackendPort
from evidencesql.errors import BackendError


@dataclass
class ScriptedBackend(LlmBackendPort):
    """Replays a fixed list of responses; repeats the last one when drained.

    Responses go out in call order, one lock over each position. Which
    prompt gets which response is fixed only where the pipeline asks its
    prompts one at a time; ``pipeline._drive`` says when that is. A
    repeated prompt is answered from the run's reply memo, so the script
    advances only on new prompts.
    """

    responses: list[str]
    name: str = "scripted"
    calls: list[tuple[str, str]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        # one lock over the append and the index read, so concurrent callers
        # (the driver's I/O threads) each get their own position in the script
        with self._lock:
            self.calls.append((system_prompt, user_prompt))
            index = min(len(self.calls), len(self.responses)) - 1
        if not self.responses:
            raise BackendError("scripted backend has no responses")
        return self.responses[index]
