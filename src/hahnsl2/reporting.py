"""Shared result records for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

PASS = "pass"
FAIL = "fail"
UNRESOLVED = "unresolved-at-bound"


@dataclass(frozen=True)
class CheckItem:
    """Outcome of one named identity or structural check."""

    name: str
    status: str
    bound: Optional[int] = None
    certificate_ref: Optional[str] = None
    detail: Optional[str] = None

    def as_dict(self) -> dict:
        out = {"identity": self.name, "status": self.status}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.certificate_ref is not None:
            out["certificate-reference"] = self.certificate_ref
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def all_pass(items: list[CheckItem]) -> bool:
    return all(item.status == PASS for item in items)
