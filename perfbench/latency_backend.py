"""A stand-in for a hosted model: the template backend plus a fixed delay.

Every call sleeps ``DELAY_S`` (20 ms) before answering, like a network round trip
whose latency does not depend on the prompt. Agent prompts get the template
backend's plan and SQL; ``reference-ranges`` prompts get the option-independent
interval from ``gen.neutral_range_reply`` so the known label stays correct;
``report-narrative`` prompts get a fixed paragraph. Replies never depend on
call order, so counts and reports repeat exactly.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from evidencesql.backends import TASK_NARRATIVE, TASK_RANGES, LlmBackendPort, TemplateBackend

from gen import neutral_range_reply

DELAY_S = 0.020
NARRATIVE = (
    "The structured report ranks the options by fused probability; the "
    "contributing features listed above are the evidence it rests on."
)


def prompt_task(system_prompt: str) -> str:
    """The ``Task:`` tag every package prompt starts with."""
    first_line = system_prompt.split("\n", 1)[0]
    return first_line[len("Task:"):].strip() if first_line.startswith("Task:") else ""


class LatencyBackend(LlmBackendPort):
    name = "latency"

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self._template = TemplateBackend()

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        task = prompt_task(system_prompt)
        self.calls[task] += 1
        time.sleep(DELAY_S)
        if task == TASK_RANGES:
            feature_key = user_prompt.split("\n", 1)[0].removeprefix("Feature:").strip()
            low, high = neutral_range_reply(feature_key)
            return json.dumps({"low": low, "high": high})
        if task == TASK_NARRATIVE:
            return NARRATIVE
        return self._template.complete(system_prompt, user_prompt, temperature, timeout)
