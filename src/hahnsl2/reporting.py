"""Shared result records for the verification suites."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from .freealg import MembershipCertificate

PASS = "pass"
FAIL = "fail"
UNRESOLVED = "unresolved-at-bound"


class CheckItem(NamedTuple):
    """Outcome of one named identity or structural check; a certified item
    carries its ideal-membership certificate."""

    name: str
    status: str
    bound: Optional[int] = None
    certificate: Optional[MembershipCertificate] = None
    detail: Optional[str] = None

    @property
    def reference(self) -> Optional[str]:
        """The report key of the certificate, or None when there is none."""
        return None if self.certificate is None else f"cert:{self.name}"

    def as_dict(self) -> dict:
        out = {"identity": self.name, "status": self.status}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.certificate is not None:
            out["certificate-reference"] = self.reference
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def check(name: str, ok: bool, detail: Optional[str] = None) -> CheckItem:
    """The verdict of a check that passes exactly when ``ok``."""
    return CheckItem(name=name, status=PASS if ok else FAIL, detail=detail)
