"""Report types shared by every checker and by the CLI.

JSON output is deterministic for a fixed request and seed: keys are
sorted and the wall time is kept out of the serialized form (it lives on
the object for human-facing printing only).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

SCHEMA_VERSION = 1


@dataclass
class Report:
    subject: str
    bounds: dict = field(default_factory=dict)
    seed: Optional[int] = None
    sample_count: int = 0
    pass_count: int = 0
    failures: list = field(default_factory=list)
    stability: Optional[dict] = None
    wall_time_ms: Optional[float] = None

    def add_failure(self, **data):
        self.failures.append(data)

    def check(self, ok: bool, /, **failure) -> bool:
        """Count one sample: a pass if ``ok``, else ``failure`` recorded."""
        self.sample_count += 1
        if ok:
            self.pass_count += 1
        else:
            self.failures.append(failure)
        return ok

    @property
    def passed(self) -> bool:
        return not self.failures and self.pass_count == self.sample_count

    def to_json_dict(self) -> dict:
        return {
            "schemaVersion": SCHEMA_VERSION,
            "subject": self.subject,
            "bounds": self.bounds,
            "seed": self.seed,
            "sampleCount": self.sample_count,
            "passCount": self.pass_count,
            "failures": self.failures,
            "stability": self.stability,
        }

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.wall_time_ms is not None:
            extra = f" ({self.wall_time_ms:.0f} ms)"
        return (f"[{state}] {self.subject}: {self.pass_count}/"
                f"{self.sample_count} checks, {len(self.failures)} failures"
                f"{extra}")


@dataclass
class DiagramReport:
    diagram: str
    sample_count: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def add_failure(self, input_repr: str, left: str, right: str):
        self.failures.append(
            {"input": input_repr, "leftValue": left, "rightValue": right})


@dataclass
class AxiomReport:
    """Per-diagram results for a distributive-law compatibility check."""
    subject: str
    seed: Optional[int]
    diagrams: list = field(default_factory=list)
    wall_time_ms: Optional[float] = None

    def diagram(self, name: str) -> DiagramReport:
        for d in self.diagrams:
            if d.diagram == name:
                return d
        d = DiagramReport(diagram=name)
        self.diagrams.append(d)
        return d

    @property
    def passed(self) -> bool:
        return all(d.passed for d in self.diagrams)

    @property
    def first_failure(self) -> Optional[dict]:
        for d in self.diagrams:
            if d.failures:
                return {"diagram": d.diagram, **d.failures[0]}
        return None

    def to_json_dict(self) -> dict:
        return {
            "schemaVersion": SCHEMA_VERSION,
            "subject": self.subject,
            "seed": self.seed,
            "diagrams": [
                {"diagram": d.diagram, "sampleCount": d.sample_count,
                 "failures": d.failures} for d in self.diagrams
            ],
        }

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        per = ", ".join(f"{d.diagram}:{d.sample_count - len(d.failures)}/"
                        f"{d.sample_count}" for d in self.diagrams)
        return f"[{state}] {self.subject}: {per}"
