"""Structured results shared by the verification checks and the CLI report."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """One named identity check: pass iff max_residual is within tolerance."""
    check_id: str
    passed: bool
    max_residual: float
    details: str | None = None


@dataclass(frozen=True)
class GraphAudit:
    """Recorded span dimensions of the graph generator families."""
    dim_orbit: int
    dim_z_span: int
    dim_h_span: int
    orbit_equals_z: bool
    orbit_equals_h: bool


@dataclass(frozen=True)
class Discrepancy:
    """A measured disagreement with a stated claim; reported, never fatal."""
    claim: str
    observed: str


@dataclass
class VerificationReport:
    """Full pass/fail record for one modulus n."""
    n: int
    tol: float
    checks: list = field(default_factory=list)
    graph: GraphAudit | None = None
    discrepancies: list = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)
