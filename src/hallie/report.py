"""Small pass/fail report structure shared by the verification operations."""

from __future__ import annotations


class CheckResult:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


class Report:
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
        }
