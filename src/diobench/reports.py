"""Machine-readable run reports.

A Report collects named checks with status pass / fail / measured /
exhausted.  JSON output is the stable interface: checks sorted by name,
keys sorted, no timing data (so identical runs are byte-identical); the
wall-clock elapsed time lives on the object only, for the text format.
"""

import json
from dataclasses import dataclass, field

STATUSES = ("pass", "fail", "measured", "exhausted")


@dataclass
class Check:
    name: str
    status: str
    details: object = None

    def __post_init__(self):
        if isinstance(self.status, bool):
            self.status = "pass" if self.status else "fail"
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def to_dict(self):
        return {"name": self.name, "status": self.status,
                "details": _plain(self.details)}


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    result: object = None
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, name, ok_or_status, details=None):
        self.checks.append(Check(name, ok_or_status, details))
        return self

    @property
    def ok(self):
        """Exit-status contract: 0 iff no check failed."""
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self):
        return {
            "command": self.command,
            "inputs": {k: str(v) for k, v in sorted(self.inputs.items())},
            "result": _plain(self.result),
            "checks": [
                c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)
            ],
            "ok": self.ok,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self):
        lines = [f"# {self.command}"]
        for k, v in sorted(self.inputs.items()):
            lines.append(f"  input {k} = {v}")
        if self.result is not None:
            lines.append(f"  result: {_textual(self.result)}")
        for c in sorted(self.checks, key=lambda c: c.name):
            mark = {"pass": "ok", "fail": "FAIL",
                    "measured": "measured", "exhausted": "exhausted"}
            line = f"  [{mark[c.status]}] {c.name}"
            if c.details is not None:
                line += f": {_textual(c.details)}"
            lines.append(line)
        lines.append(f"  => {'ok' if self.ok else 'FAILED'}"
                     f" ({self.elapsed:.2f}s)")
        return "\n".join(lines)


def _plain(v):
    """JSON-safe copy: exact scalars become strings, containers recurse."""
    if v is None or isinstance(v, (bool, int)):
        return v
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if hasattr(v, "to_dict"):
        return _plain(v.to_dict())
    return str(v)


def _textual(v):
    if isinstance(v, dict):
        return ", ".join(f"{k}={_textual(x)}" for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_textual(x) for x in v) + "]"
    if hasattr(v, "to_dict"):
        return _textual(v.to_dict())
    return str(v)
