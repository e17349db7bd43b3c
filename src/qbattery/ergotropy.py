"""Unitary work extraction, global and local.

The maximum work a unitary can draw from (rho, H) is Tr(rho H) minus the
energy of the passive state, whose populations are the spectrum of rho
anti-ordered against the spectrum of H.  Because the battery Hamiltonian is
a sum of single-qubit terms, the locally extractable work splits exactly
into the marginal ergotropies.  Each is read off rho in closed form: a qubit
with Bloch vector r has energy e*z against e*sigma_z (e > 0, which
ModelParams enforces), and its passive state, the spectrum (1 +- |r|)/2 with
the larger weight on the lower level, has energy -e*|r|, so its ergotropy is
e*(z + |r|).  In rho's basis |q1 q2>, qubit 1 has
z1 = rho00 + rho11 - rho22 - rho33 and coherence c1 = rho20 + rho31, qubit 2
has z2 = rho00 - rho11 + rho22 - rho33 and c2 = rho10 + rho32, and
|r_i| = hypot(z_i, 2|c_i|).  The local work e1*(z1 + |r1|) + e2*(z2 + |r2|)
takes no diagonalisation.

The locally passive states have a free relative phase, a z rotation R of
qubit 1.  R commutes with the battery Hamiltonian and with the collision
Hamiltonian (its only qubit-1 term is qubit 1's energy), so n collisions
give R rho_n R^dagger, whose spectrum and energy are rho_n's: G_p does not
depend on the phase, and none is searched.

The same holds for G and L, with any z rotations R1 (x) R2.  The collision
channel is phase covariant: written out (collision.py), it mixes only
qubit 2's populations and multiplies qubit 2's coherence by g and qubit 1's
by a phase, so a collision maps R rho R^dagger to R rho' R^dagger.  R is
diagonal, so it commutes with the battery Hamiltonian and the work yields of
R rho_n R^dagger are rho_n's, marginals included.  Of the six Euler angles of
U1 (x) U2 = Rz(a1)Ry(b1)Rz(g1) (x) Rz(a2)Ry(b2)Rz(g2), the outer a1 and a2
are such rotations, and the inner g1, g2 only put the phases
exp(-+j(g1 + g2)/2) on the Schmidt terms |00> and |11>.  So G and L depend on
(b1, g1 + g2, b2) alone.

Qubit 1's angles drop out as well, because the yields separate.  A
collision touches qubit 1 only through a z rotation, so U1 (x) I passes
through every collision as a unitary on qubit 1 alone: for a fixed U2, the
spectrum of rho_n and qubit 2's marginal do not depend on U1.  The channel
keeps qubit 1's trace, so qubit 1's marginal stays
U1 diag(lambda1, lambda2) U1^dagger, up to a z rotation, whose energy
against e1*sz is e1*(lambda1 - lambda2)*cos(b1) and whose Bloch vector has
length lambda1 - lambda2.  So U1 enters G only through that energy and L
only through qubit 1's marginal ergotropy, and both are largest at b1 = 0,
where g1 + g2 is a z rotation of qubit 1 that no yield sees.  G and L are
maxima over b2 alone.

At b1 = 0 the initial state is cos(b2/2) u + sin(b2/2) w, with
u = (r1, 0, 0, r2), w = (0, r1, -r2, 0) and r_i = sqrt(lambda_i), so
rho_0(b2) = M0 + cos(b2) M1 + sin(b2) M2 for the real matrices
M0 = (uu^T + ww^T)/2, M1 = (uu^T - ww^T)/2 and M2 = (uw^T + wu^T)/2.  The
channel is linear and its phases change no yield, so rho_n(b2) is the same
form over the M_i damped by the phase-free channel with
Lambda = lambda(delta_t)**n (`collision.damp`), and its energy Tr(rho_n H)
is the same form over theirs.  G_p takes its state from the same damping.
The coupling and delta_t enter only through Lambda
(`collision.after_collisions`), so one call per E (`max_work_at_lambdas`)
damps the state, or the M_i, at the Lambda of every (n, k) of a sweep.

The locally passive state and the Schmidt state are X states: zero off the
diagonal and the anti-diagonal, that is, block diagonal on
{|00>, |11>} (+) {|01>, |10>}.  The damping keeps that shape, since its
weight a multiplies entry by entry and b flips qubit 2 on both indices.  It
mixes qubit 2's populations within each value of qubit 1 and multiplies
rho03 and rho12 by sqrt(Lambda), so `damped_work` damps those 6 entries
alone.  A block [[a, c], [conj(c), d]] has the eigenvalues
m +- hypot((a - d)/2, |c|) with m = (a + d)/2, and the battery Hamiltonian
is diagonal, so the global yield needs no eigvalsh.  The marginal
coherences c1 = rho20 + rho31 and c2 = rho10 + rho32 of an X state are 0,
so the local yield reads the populations alone.  Every step is entry by
entry, the sums in fixed orders, so a value is the same whatever other
Lambda share its call: a one-count sweep, row n of a longer sweep, a
trajectory's collision boundary and `ergotropy_after_collisions` write one
text.

The yields are even in b2: sz (x) sz, a z rotation of both qubits, maps u
to u and w to -w, so the state at b2 to the one at -b2.  So b2 = 0 and
b2 = pi are stationary points of every yield, and a search started on one
stays there when it is a lower local maximum or the yield is nearly flat.
The search's angle is therefore x = b2 - pi/2, whose zero start (the
`optimize` module always makes one) lies between them:
rho_0 = M0 + cos(x) M2 - sin(x) M1.

L needs no search: its stationary points in u = cos(b2) solve a
quadratic.  At b1 = 0 qubit 1's marginal is diag(lambda1, lambda2), with
ergotropy 2*e1*gap for gap = lambda1 - lambda2 >= 0, whatever b2.  Qubit
2's marginal has z2 = gap*u and coherence gap*sin(b2)/2.  The damping keeps
the fraction Lambda of z2's offset from the bath's p0 - p1 and sqrt(Lambda)
of the coherence, so after n collisions
L(u) = 2*e1*gap + e2*(z + R), with z = Lambda*gap*u + (1 - Lambda)*(p0 - p1)
and R = sqrt(z**2 + Lambda*gap**2*(1 - u**2)).  R > 0 inside (-1, 1) when
Lambda*gap > 0, so L's maximum on [-1, 1] lies at u = -1, at u = 1 or where
dL/du = e2*Lambda*gap*(R + z - gap*u)/R vanishes.  R = gap*u - z, squared
and with z written out, is
(1 - Lambda)*gap*u**2 - 2*(1 - Lambda)*(p0 - p1)*u - Lambda*gap = 0,
whose discriminant 4*(1 - Lambda)*((1 - Lambda)*(p0 - p1)**2 + Lambda*gap**2)
is never negative.  Squaring can only add roots, and an extra one does no
harm, since it is read as a value of L.  When (1 - Lambda)*gap = 0 there is
no quadratic, and none is needed: at Lambda = 1, L = 2*e1*gap + e2*gap*(u + 1)
is largest at u = 1, and at gap = 0 (or Lambda = 0) L is constant.  The
roots of a*u**2 + b*u + c are taken as q/a and c/q, with
q = -(b + sign(b)*sqrt(b**2 - 4*a*c))/2, which loses no digits to
cancellation.  With a > 0, q = 0 only at b = 0 and a zero discriminant:
p0 = p1 (beta = 0) and Lambda = 0, where c = 0 too and the double root is
u = 0 = q/a.  The candidates are evaluated through the same (3, 17) form
and local yield as every other evaluation, so the closed form only says
where to look.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .collision import _require_state, after_collisions, damp, damp_chunked, damping
from .collision import collision_propagator  # noqa: F401  unused; perfbench wraps it by this module's name
from .linalg import ContractViolation, is_density_matrix, is_hermitian
from .model import ModelParams, battery_hamiltonian
from .optimize import OptimizerReport, OptimizerSettings, multistart_maximize
from .states import locally_passive_state, projector, schmidt_gap, schmidt_lambdas_from_entanglement
from .states import fixed_entanglement_state  # noqa: F401  unused; perfbench wraps it by this module's name

# The work yield each quantity reports: G_p and G the global one, L the local one.
MODES = {"G_p": "global", "G": "global", "L": "local"}
QUANTITIES = tuple(MODES)


def _check_pair(rho, h):
    r = np.asarray(rho, dtype=complex)
    hm = np.asarray(h, dtype=complex)
    if r.shape != hm.shape:
        raise ContractViolation("state and Hamiltonian must have equal dims")
    if not is_density_matrix(r):
        raise ContractViolation("rho is not a density matrix within tolerance")
    if not is_hermitian(hm):
        raise ContractViolation("h is not Hermitian within tolerance")
    return r, hm


def _work(r: np.ndarray, h: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Unchecked global ergotropy of each state of the (..., d, d) stack r
    against Hamiltonian h, whose ascending spectrum the caller passes as levels."""
    rho_desc = np.linalg.eigvalsh(r)[..., ::-1]
    return np.trace(r @ h, axis1=-2, axis2=-1).real - rho_desc @ levels


def _local(p: ModelParams, d: np.ndarray, c1, c2) -> np.ndarray:
    """The local yield, the sum of the two marginal ergotropies in closed form
    (module docstring), from the (..., 4) populations d and the marginal
    coherences c1 and c2."""
    z1 = d[..., 0] + d[..., 1] - d[..., 2] - d[..., 3]
    z2 = d[..., 0] - d[..., 1] + d[..., 2] - d[..., 3]
    return p.e1 * (z1 + np.hypot(z1, 2.0 * np.abs(c1))) + p.e2 * (z2 + np.hypot(z2, 2.0 * np.abs(c2)))


def _yield_of(p: ModelParams, mode: str):
    """The unchecked global or local work yield of a (..., 4, 4) state stack, as
    a function of the stack; the battery spectrum is taken once, here."""
    if mode == "global":
        h12 = battery_hamiltonian(p)
        levels = np.linalg.eigvalsh(h12)
        return lambda r: _work(r, h12, levels)

    def local(r):
        return _local(p, np.einsum("...ii->...i", r).real, r[..., 2, 0] + r[..., 3, 1], r[..., 1, 0] + r[..., 3, 2])

    return local


def global_ergotropy(rho, h) -> float:
    """Tr(rho h) - Tr(sigma_rho h); non-negative, zero iff rho is passive.

    Computed from the sorted spectra directly, which makes the value
    independent of eigenvector tie-breaking under degenerate energies.
    """
    r, hm = _check_pair(rho, h)
    return float(_work(r, hm, np.linalg.eigvalsh(hm)))


def local_ergotropy(rho12, p: ModelParams) -> float:
    """Maximum work extractable with product unitaries U1 (x) U2.

    The battery Hamiltonian has no interaction term, so the maximization
    separates into the marginal ergotropies against e1*sz and e2*sz.
    """
    return float(_yield_of(p, "local")(_require_state(rho12, "rho12")))


def ergotropy_after_collisions(rho0, n: int, p: ModelParams, mode: str = "global") -> float:
    """Evolve n full collisions, then take the global or local work yield.
    n may exceed int64 and reach the float range."""
    return float(damped_work(_require_state(rho0, "rho0"), after_collisions(p, [n]), p, mode)[0])


_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])  # zero in an X state


def damped_work(rho0: np.ndarray, lam: np.ndarray, p: ModelParams, mode: str = "global") -> np.ndarray:
    """Global or local work yield of the checked state rho0 damped at each
    Lambda of the 1-D lam, DAMP_CHUNK values at a time.

    The damping keeps an X state an X state (module docstring).  So when
    rho0 is zero off the X, as the locally passive state and the Schmidt
    state are, only its 4 populations and its coherences rho03 and rho12 are
    damped, with the weights of `collision.damping`.  The global yield reads
    the spectrum off the two 2x2 blocks and the energy off the populations,
    within 1e-12 of the 4x4 eigvalsh, and the local yield reads the
    populations alone.  Every operation there is entry by entry, so a value
    does not depend on the other Lambda of its call.  Any other state is
    damped whole, a (chunk, 4, 4) stack at a time."""
    if mode not in ("global", "local"):
        raise ValueError(f"mode must be 'global' or 'local', got {mode!r}")
    dense = _yield_of(p, mode) if np.any(rho0[_OFF_X]) else None
    pops = rho0.diagonal().real.reshape(2, 2)  # over (q1, q2)
    coherences = np.abs(rho0[[0, 1], [3, 2]])
    e = np.diag(battery_hamiltonian(p)).real  # the energies of |00>, |01>, |10>, |11>
    v = np.sort(e)  # the battery's levels, ascending

    def work(chunk):
        if dense is not None:
            return dense(damp(rho0, chunk, p))
        a, b = (w[:, 0, :, 0, :] for w in damping(p, chunk))  # over (Lambda, q2, q2')
        keep, take = (w.diagonal(axis1=1, axis2=2).T for w in (a, b))  # over (q2, Lambda)
        d = (keep * pops[..., None] + take * pops[:, ::-1, None]).reshape(4, -1)  # rows |00>, |01>, |10>, |11>
        if mode == "local":
            return _local(p, d.T, 0.0, 0.0)  # an X state's marginals have no coherence
        # each block's eigenvalues m +- s, {|00>, |11>} first, and the four in descending order
        m, s = 0.5 * (d[:2] + d[3:1:-1]), np.hypot(0.5 * (d[:2] - d[3:1:-1]), a[:, 0, 1] * coherences[:, None])
        (hi1, hi2), (lo1, lo2) = m + s, m - s
        mid = np.minimum(hi1, hi2), np.maximum(lo1, lo2)
        r = np.maximum(hi1, hi2), np.maximum(*mid), np.minimum(*mid), np.minimum(lo1, lo2)
        # summed entry by entry in fixed orders: a matrix-vector product can sum one row otherwise than many
        return (d[0] * e[0] + d[2] * e[2]) + (d[1] * e[1] + d[3] * e[3]) - (
            ((r[0] * v[0] + r[1] * v[1]) + r[2] * v[2]) + r[3] * v[3])

    return damp_chunked(work, lam)


@dataclass(frozen=True)
class WorkRecord:
    """One extremal work value on the fixed-entanglement family."""

    value: float
    report: OptimizerReport | None = None


def max_work_at_lambdas(entanglement: float, lam: np.ndarray, p: ModelParams, quantity: str, settings=None):
    """Extremal work at fixed initial entanglement after the damping at each
    Lambda of the 1-D lam (`collision.after_collisions`), as (values,
    reports): the reports of G's searches, None for G_p and L.  p gives the
    battery and the bath; its k and delta_t enter only through lam.  The
    Lambda are taken DAMP_CHUNK at a time, so no per-point stack is held
    whole.

    quantity "G_p": direct yield of the locally passive initial state (no
    optimization; its free phase cannot change the yield, see the module
    docstring), through `damped_work`.  "G"/"L": global or local yield
    maximized over the fixed-entanglement family, over qubit 2's angle b2
    alone, as x = b2 - pi/2: the yields separate, and qubit 1's angles are
    best at b1 = 0 (module docstring).  The damped M_i and their energies are
    taken once per Lambda, as the rows of one (3, 17) linear form, so an
    evaluation is a few elementwise operations and, for G, one real 4x4
    eigvalsh.  G is one seeded multi-start search per Lambda, on its own
    row of the (len(lam), 3, 17) forms, with the next of settings (an
    OptimizerSettings or None per Lambda, read in order; None gives the
    default settings to each).  L takes no search: it is the largest
    evaluation at u = cos(b2) = -1, 1 and the roots in [-1, 1] of the
    stationary quadratic (module docstring), four rows per Lambda, and
    settings are ignored, as for G_p.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    if quantity == "G_p":
        return damped_work(projector(locally_passive_state(entanglement)), lam, p), None
    r1, r2 = (math.sqrt(weight) for weight in schmidt_lambdas_from_entanglement(entanglement))
    u, w = np.array([r1, 0.0, 0.0, r2]), np.array([0.0, r1, -r2, 0.0])
    uu, ww, uw = np.outer(u, u), np.outer(w, w), np.outer(u, w)
    terms = 0.5 * np.array([uu + ww, uw + uw.T, ww - uu])  # M0, M2 and -M1: the chart x = b2 - pi/2
    energies = np.diag(battery_hamiltonian(p)).real
    local, levels = _yield_of(p, "local"), np.sort(energies)
    gap, seeds, reports = schmidt_gap(entanglement), iter(settings or [None] * len(lam)), []

    def work(form, x):  # (..., 1) angles x, one value per point; elementwise, so a row is its point alone
        f = form[..., 0, :] + np.cos(x) * form[..., 1, :] + np.sin(x) * form[..., 2, :]
        r = f[..., :16].reshape(x.shape[:-1] + (4, 4))
        return local(r) if quantity == "L" else f[..., 16] - np.linalg.eigvalsh(r)[..., ::-1] @ levels

    def best(chunk):
        damped = damp(terms, chunk[:, None], p)
        forms = np.concatenate([damped.reshape(-1, 3, 16), damped.diagonal(axis1=2, axis2=3) @ energies[:, None]], axis=2)
        if quantity == "G":
            found = [multistart_maximize(partial(work, form), 1, s) for form, s in zip(forms, seeds)]
            reports.extend(report for _, _, report in found)
            return np.array([value for _, value, _ in found])
        # no search: the largest value at u = cos(b2) = +-1 and the stationary u (module docstring), the
        # roots q/a and c/q of a*u**2 + b*u + c; q = 0 only at the double root 0 = q/a
        a, b, c = (1.0 - chunk) * gap, -2.0 * (1.0 - chunk) * (p.p0 - p.p1), -chunk * gap
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        root = np.divide(q, a, out=np.ones_like(q), where=a != 0.0)  # a = 0: no quadratic, and none is needed
        other = np.divide(c, q, out=root.copy(), where=(a != 0.0) & (q != 0.0))
        cos_b2 = np.clip(np.stack([-np.ones_like(q), np.ones_like(q), root, other], axis=1), -1.0, 1.0)
        return work(forms[:, None], -np.arcsin(cos_b2)[..., None]).max(axis=1)  # x = b2 - pi/2 = -arcsin(cos b2)

    return damp_chunked(best, lam), reports if quantity == "G" else None


def max_work_fixed_entanglement(
    entanglement: float, n: int, p: ModelParams, quantity: str, settings: OptimizerSettings | None = None
) -> WorkRecord:
    """Extremal work after n collisions at fixed initial entanglement: the
    one-point call of `max_work_at_lambdas`.  G's record carries its
    search's report, and G_p's and L's none."""
    values, reports = max_work_at_lambdas(entanglement, after_collisions(p, [n]), p, quantity, [settings])
    return WorkRecord(float(values[0]), reports[0] if reports else None)
