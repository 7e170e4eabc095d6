"""Machine-checkable certificates rendered by the CLI.

The text and JSON renderings are deterministic functions of the mathematical
content: entries appear in insertion order and wall time is deliberately
excluded (it goes to stderr), so repeated runs are byte-identical."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Certificate:
    command: str
    inputs: list[tuple[str, str]] = field(default_factory=list)
    witnesses: list[tuple[str, str]] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    passed: bool = True
    counterexample: str = ""

    def add_input(self, key: str, value) -> None:
        self.inputs.append((key, str(value)))

    def add_witness(self, key: str, value) -> None:
        self.witnesses.append((key, str(value)))

    def add_check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))
        if not ok:
            self.passed = False

    def render(self) -> str:
        lines = [f"certificate: {self.command}"]
        for key, value in self.inputs:
            lines.append(f"input {key}: {value}")
        for key, value in self.witnesses:
            lines.append(f"witness {key}: {value}")
        for name, ok, detail in self.checks:
            status = "pass" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            lines.append(f"check {name}: {status}{suffix}")
        if self.counterexample:
            lines.append(f"counterexample: {self.counterexample}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "certificate": self.command,
            "inputs": dict(self.inputs),
            "witnesses": dict(self.witnesses),
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
            "counterexample": self.counterexample,
            "result": "PASS" if self.passed else "FAIL",
        }
        return json.dumps(payload, indent=2)
