"""Independent references that tests compare package code against.

The dense path is the reference for the collision layer: the 8x8 collision
Hamiltonian assembled from its battery, interaction and bath-spin terms,
exp(-j*t*H) from one eigendecomposition (`unitary_from_hamiltonian`), and
the spin traced out of the joint state.  The package evolves the battery
through the same channel written in closed form.  The phased collision loop
(`run_collisions`) and the phased n-collision map T**n (`collision_power`)
keep the z rotations that the package's phase-free damping leaves out.
The small kernels here (partial trace, trace distance, unitarity, the
thermal spin, log-negativity, the BLP functional and a direct maximization
of the local work) are written out on their own; no command runs them.
The G/L search over all six Euler angles, the G/L yield at the three
angles (b1, g1 + g2, b2), the L yield over qubit 2's angle b2, the
csv.writer path, scipy's scrambled Halton sampler, scipy's Nelder-Mead and
scipy's brentq are references for package code that reaches the same
result with less work.
The backflow oracles deliberately avoid the package's optimizer,
orthogonal-pair parametrization and transfer-matrix core: pairs are two
*independent* pure states from a plain spherical chart, sampled with a
scrambled Halton sequence, and the backflow of every pair is accumulated by
direct batched evolution on the joint battery-spin space.  Slow by design;
the values frozen in the test modules were produced by these functions.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.stats import qmc

from qbattery.collision import _qubit2, apply_channel, channel_weights
from qbattery.ergotropy import MODES, _yield_of, ergotropy_after_collisions
from qbattery.linalg import ContractViolation, _as_square, is_density_matrix, is_hermitian
from qbattery.model import MAX_PHASE, ModelParams, battery_hamiltonian
from qbattery.optimize import F_TOL, SPAN, X_TOL, OptimizerSettings, multistart_maximize
from qbattery.states import schmidt_lambdas_from_entanglement, single_qubit_unitary


SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def unitary_from_hamiltonian(h, t) -> np.ndarray:
    """exp(-j*t*h) for Hermitian h, computed exactly via eigendecomposition;
    a 1-D array t gives the (len(t), d, d) stack from one eigendecomposition."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ContractViolation("time must be finite")
    m = _as_square(h)
    if not is_hermitian(m):
        raise ContractViolation("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * t[..., None, None] * w)) @ v.conj().T


def bath_spin_hamiltonian(p: ModelParams) -> np.ndarray:
    """h*sz for a single bath spin."""
    return p.h * SIGMA_Z


def interaction_hamiltonian(p: ModelParams) -> np.ndarray:
    """Exchange coupling k*(sx (x) sx + sy (x) sy) on qubit2 (x) spin.

    Equals 2k on the |01><10| + |10><01| block and zero elsewhere, so it
    conserves the total excitation of the qubit2/spin pair.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2] = h[2, 1] = 2.0 * p.k
    return h


def total_collision_hamiltonian(p: ModelParams) -> np.ndarray:
    """8x8 generator of one collision in qubit1 (x) qubit2 (x) spin ordering."""
    return (
        np.kron(battery_hamiltonian(p), ID2)
        + np.kron(ID2, interaction_hamiltonian(p))
        + np.kron(np.eye(4), bath_spin_hamiltonian(p))
    )


def partial_trace(x, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator; ``dims = (dA, dB)`` and
    ``keep`` ("A" or "B") names the surviving subsystem."""
    m = np.asarray(x, dtype=complex)
    da, db = int(dims[0]), int(dims[1])
    if m.shape != (da * db, da * db):
        raise ContractViolation(f"dimension mismatch: {da}*{db} against shape {m.shape}")
    r = m.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("isjs->ij", r)
    if keep == "B":
        return np.einsum("sisj->ij", r)
    raise ContractViolation(f"keep must be 'A' or 'B', got {keep!r}")


def trace_distance(r1, r2) -> float:
    """Half the trace norm of r1 - r2 for two density matrices."""
    a, b = np.asarray(r1, dtype=complex), np.asarray(r2, dtype=complex)
    if a.shape != b.shape or not (is_density_matrix(a) and is_density_matrix(b)):
        raise ContractViolation("trace_distance requires two density matrices of one size")
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def is_unitary(a, tol: float = 1e-10) -> bool:
    m = np.asarray(a, dtype=complex)
    return bool(np.abs(m.conj().T @ m - np.eye(len(m))).max() <= tol)


def thermal_spin_state(p: ModelParams) -> np.ndarray:
    """Gibbs state diag(p0, p1) of a fresh bath spin at inverse temperature beta."""
    return np.diag([p.p0, p.p1]).astype(complex)


def log_negativity(c) -> float:
    """log2(2*|c0*c3 - c1*c2| + 1) for a normalized two-qubit pure state."""
    v = np.asarray(c, dtype=complex).reshape(-1)
    if v.shape != (4,) or abs(v.conj() @ v - 1.0) > 1e-12:
        raise ContractViolation("expected a normalized 4-component state vector")
    return float(np.log2(2.0 * abs(v[0] * v[3] - v[1] * v[2]) + 1.0))


def blp_functional(trace) -> float:
    """Sum of positive increments of D over an ascending (t, D) grid."""
    arr = np.asarray(trace, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two (t, D) samples")
    if np.any(np.diff(arr[:, 0]) <= 0):
        raise ValueError("time stamps must be strictly ascending")
    return float(np.maximum(np.diff(arr[:, 1]), 0.0).sum())


def local_ergotropy_numeric(
    rho12, p: ModelParams, settings: OptimizerSettings | None = None
) -> float:
    """Local work by direct maximization over the 6-angle product-unitary
    family, against the package's marginal split: Tr(rho H) minus
    Tr(U rho U^dagger H), with U = U1 (x) U2 from `euler_product_unitary`,
    taken for every row of a search round at once."""
    r = np.asarray(rho12, dtype=complex)
    h12 = battery_hamiltonian(p)
    e_in = float(np.trace(r @ h12).real)

    def extracted(angles):  # (k, 6) angles, k values
        u1, u2 = euler_product_unitary(*angles.reshape(-1, 2, 3).T)  # each (k, 2, 2)
        u = np.einsum("nij,nkl->nikjl", u1, u2).reshape(-1, 4, 4)  # u1 (x) u2
        return e_in - np.trace(u @ r @ u.conj().transpose(0, 2, 1) @ h12, axis1=-2, axis2=-1).real

    return multistart_maximize(extracted, 6, settings)[1]


def marginal_local_work(r, p: ModelParams) -> np.ndarray:
    """Reference for the package's closed-form local yield of a (..., 4, 4)
    stack: each qubit's marginal by partial trace, its ergotropy from the
    2x2 spectrum, and their sum."""
    blocks = np.asarray(r, dtype=complex).reshape(np.shape(r)[:-2] + (2, 2, 2, 2))
    total = 0.0
    for e, marginal in ((p.e1, np.einsum("...isjs->...ij", blocks)), (p.e2, np.einsum("...sisj->...ij", blocks))):
        h = e * SIGMA_Z
        rho_desc = np.linalg.eigvalsh(marginal)[..., ::-1]
        total = total + np.trace(marginal @ h, axis1=-2, axis2=-1).real - rho_desc @ np.linalg.eigvalsh(h)
    return total


def euler_product_unitary(alpha, beta, gamma) -> np.ndarray:
    """Reference for qbattery.states.single_qubit_unitary: the matrix product
    Rz(alpha) @ Ry(beta) @ Rz(gamma) of the three rotations, one (2, 2)
    matrix per element of the angles' broadcast shape."""
    eye = np.eye(2)
    rz_a = np.exp(np.multiply.outer(alpha, [-0.5j, 0.5j]))[..., None] * eye
    rz_g = np.exp(np.multiply.outer(gamma, [-0.5j, 0.5j]))[..., None] * eye
    cb, sb = np.cos(0.5 * np.asarray(beta)), np.sin(0.5 * np.asarray(beta))
    ry = np.stack([np.stack([cb, -sb], axis=-1), np.stack([sb, cb], axis=-1)], axis=-2).astype(complex)
    return rz_a @ ry @ rz_g


def kron_fixed_entanglement_state(entanglement: float, angles) -> np.ndarray:
    """Reference for qbattery.states.fixed_entanglement_state: the local
    unitaries applied to the Schmidt normal form through np.kron."""
    lam1, lam2 = schmidt_lambdas_from_entanglement(entanglement)
    base = np.array([np.sqrt(lam1), 0.0, 0.0, np.sqrt(lam2)], dtype=complex)
    u1, u2 = single_qubit_unitary(*angles[:3]), single_qubit_unitary(*angles[3:])
    return np.kron(u1, u2) @ base


def _battery_maps(p: ModelParams, unitaries) -> np.ndarray:
    """(len, 16, 16) maps on row-major vec(rho) of the 8x8 collision unitaries:
    rho -> Tr_spin[U (rho (x) diag(p0, p1)) U^dag]."""
    u = np.stack(unitaries).reshape(-1, 4, 2, 4, 2)
    pops = np.array([p.p0, p.p1])
    return np.einsum("b,tisjb,tksmb->tikjm", pops, u, u.conj()).reshape(-1, 16, 16)


def propagator_stack(p: ModelParams, taus) -> np.ndarray:
    """Reference for the maps run_collisions applies: the contraction over
    the dense unitaries exp(-j*tau*H_total), from one eigendecomposition."""
    return _battery_maps(p, unitary_from_hamiltonian(total_collision_hamiltonian(p), np.asarray(taus, dtype=float)))


def closed_form_collision_unitary(p: ModelParams, tau: float) -> np.ndarray:
    """exp(-j*tau*H_total) written out, with no diagonalization.

    Qubit 1 precesses at e1.  In qubit 2 (x) spin, |00> and |11> pick up the
    phases exp(-+j*tau*(e2 + h)), and the exchange block {|01>, |10>} turns as
    cos(W*tau) I - j*sin(W*tau)/W * (D*sz + 2k*sx) with D = e2 - h and
    W = sqrt(D^2 + 4k^2); at W = 0 the block is the identity.
    """
    d = p.e2 - p.h
    w = np.hypot(d, 2.0 * p.k)
    sin_over_w = tau * np.sinc(w * tau / np.pi)  # sin(W*tau)/W, tending to tau as W -> 0
    pair = np.zeros((4, 4), dtype=complex)
    pair[0, 0], pair[3, 3] = np.exp(-1j * tau * (p.e2 + p.h)), np.exp(1j * tau * (p.e2 + p.h))
    pair[1:3, 1:3] = np.cos(w * tau) * np.eye(2) - 1j * sin_over_w * np.array([[d, 2.0 * p.k], [2.0 * p.k, -d]])
    qubit1 = np.diag([np.exp(-1j * tau * p.e1), np.exp(1j * tau * p.e1)])
    return np.kron(qubit1, pair)


def closed_form_stack(p: ModelParams, taus) -> np.ndarray:
    """Reference for the maps run_collisions applies that shares no code
    with unitary_from_hamiltonian: the closed-form unitary per tau,
    contracted with the spin as the dense path does."""
    return _battery_maps(p, [closed_form_collision_unitary(p, tau) for tau in taus])


def dense_collisions(rho0, n: int, taus, p: ModelParams) -> np.ndarray:
    """Reference for run_collisions: every sample is
    Tr_spin[U(tau) (rho_b (x) rho_spin) U(tau)^dag] on the 8x8 joint space,
    rho_b being the state at the last tau of the collision before."""
    bath = thermal_spin_state(p)
    h = total_collision_hamiltonian(p)
    unitaries = [unitary_from_hamiltonian(h, tau) for tau in taus]
    states = [np.asarray(rho0, dtype=complex)]
    for _ in range(n):
        boundary = states[-1]
        for u in unitaries:
            joint = u @ np.kron(boundary, bath) @ u.conj().T
            states.append(partial_trace(joint, (4, 2), "A"))
    return np.array(states)


def lambda_at_taus(p: ModelParams, taus, collisions: int) -> np.ndarray:
    """Lambda at tau = 0 and at every tau of each collision, as
    collisions*len(taus) + 1 values, for tau grids that are no collision's
    sample times.  Each collision starts from the state at the last tau of
    the one before, so inside collision m + 1
    Lambda = lambda(taus[-1])**m * lambda(tau), the power taken as a running
    product."""
    lam = _qubit2(p, np.array(taus, dtype=float))[0]
    powers = np.cumprod(np.concatenate([[1.0], np.full(collisions, lam[-1])]))[:collisions]
    return np.concatenate([[1.0], np.outer(powers, lam).ravel()])


def run_collisions(rho0, n: int, taus, p: ModelParams) -> np.ndarray:
    """The phased reference for the package's phase-free samples: rho0, then
    the battery state at every tau of collisions 1..n, z rotations included.

    Each collision starts from the state at the last tau of the one before,
    with a fresh thermal spin, and applies the package's
    qbattery.collision.channel_weights.  Unchecked: the map is linear, so
    rho0 may be any 4x4 operator, such as the traceless difference of two
    states.  Returns an (n*len(taus) + 1, 4, 4) array.
    """
    t = np.array(taus, dtype=float)
    weights = channel_weights(p, *_qubit2(p, t), np.exp(-2j * p.e1 * t))
    m = len(t)
    out = np.empty((n * m + 1, 2, 2, 2, 2), dtype=complex)
    out[0] = np.reshape(rho0, (2, 2, 2, 2))
    for c in range(n):
        out[c * m + 1 : (c + 1) * m + 1] = apply_channel(weights, out[c * m])
    return out.reshape(-1, 4, 4)


def _times(phase: float, n: int) -> float:
    """phase*n.  Past MAX_PHASE the product carries no digit of the true
    phase and can overflow, so it is then reduced exactly mod 2*pi instead."""
    total = phase * float(n)
    return total if abs(total) <= MAX_PHASE else float(Fraction(phase) * int(n) % Fraction(math.tau))


def collision_power(p: ModelParams, n: int) -> np.ndarray:
    """The phased reference for n full collisions: T**n, the 16x16 map on
    row-major vec(rho) of the channel with Lambda = lambda(delta_t)**n,
    |g**n| = sqrt(Lambda) and the z rotations taken n times, which the
    package's phase-free damping leaves out.  n may exceed int64."""
    lam, g = _qubit2(p, p.delta_t)
    lam_n = lam ** float(n)
    g_n = np.sqrt(lam_n) * np.exp(1j * _times(float(np.angle(g)), n))
    weights = channel_weights(p, lam_n, g_n, np.exp(-1j * _times(2.0 * p.e1 * p.delta_t, n)))
    # row j is the image of the j-th basis operator; T**n is the transpose
    return apply_channel(weights, np.eye(16).reshape(16, 2, 2, 2, 2)).reshape(16, 16).T


def spherical_states(unit_cube: np.ndarray) -> np.ndarray:
    """Map points of [0,1)^6 to pure 4-vectors (magnitude angles in [0, pi/2],
    phases in [0, 2*pi))."""
    t = unit_cube[:, :3] * (np.pi / 2)
    ph = unit_cube[:, 3:] * (2 * np.pi)
    c = np.empty((len(unit_cube), 4), dtype=complex)
    c[:, 0] = np.cos(t[:, 0])
    c[:, 1] = np.sin(t[:, 0]) * np.cos(t[:, 1]) * np.exp(1j * ph[:, 0])
    c[:, 2] = np.sin(t[:, 0]) * np.sin(t[:, 1]) * np.cos(t[:, 2]) * np.exp(1j * ph[:, 1])
    c[:, 3] = np.sin(t[:, 0]) * np.sin(t[:, 1]) * np.sin(t[:, 2]) * np.exp(1j * ph[:, 2])
    return c


def dense_backflow_lower_bound(
    delta_t: float,
    p: ModelParams,
    n_pairs: int = 100_000,
    grid_points: int = 200,
    seed: int = 20240901,
    chunk: int = 20_000,
) -> float:
    """Best backflow found over n_pairs low-discrepancy unrestricted pure
    pairs; a lower bound on the pair-maximized measure."""
    sampler = qmc.Halton(d=12, scramble=True, seed=np.random.default_rng(seed))
    cube = sampler.random(n_pairs)
    s1 = spherical_states(cube[:, :6])
    s2 = spherical_states(cube[:, 6:])
    bath = thermal_spin_state(p)
    w, v = np.linalg.eigh(total_collision_hamiltonian(p))
    taus = np.arange(grid_points + 1) * (delta_t / grid_points)
    best = 0.0
    for lo in range(0, n_pairs, chunk):
        hi = min(lo + chunk, n_pairs)
        d4 = np.einsum("ni,nj->nij", s1[lo:hi], s1[lo:hi].conj()) - np.einsum(
            "ni,nj->nij", s2[lo:hi], s2[lo:hi].conj()
        )
        d8 = np.einsum("nij,kl->nikjl", d4, bath).reshape(-1, 8, 8)
        acc = np.zeros(hi - lo)
        prev = None
        for tau in taus:
            u = (v * np.exp(-1j * tau * w)) @ v.conj().T
            evolved = u @ d8 @ u.conj().T
            reduced = np.einsum("nisjs->nij", evolved.reshape(-1, 4, 2, 4, 2))
            dist = 0.5 * np.abs(np.linalg.eigvalsh(reduced)).sum(axis=1)
            if prev is not None:
                acc += np.maximum(dist - prev, 0.0)
            prev = dist
        best = max(best, float(acc.max()))
    return best


def six_angle_max_work(
    entanglement: float, n: int, p: ModelParams, quantity: str, settings: OptimizerSettings | None = None
) -> float:
    """Reference for G and L of qbattery.ergotropy.max_work_fixed_entanglement:
    G's multi-start search, but over all six Euler angles of U1 (x) U2, each
    state built through np.kron."""
    work = _yield_of(p, MODES[quantity])
    power = collision_power(p, n)

    def objective(angles):
        c = kron_fixed_entanglement_state(entanglement, angles)
        return work((power @ np.outer(c, c.conj()).reshape(16)).reshape(4, 4))

    return multistart_maximize(lambda xs: np.array([objective(x) for x in xs]), 6, settings)[1]


def rotated_schmidt_state(root1: float, root2: float, b1, g1, b2) -> np.ndarray:
    """fixed_entanglement_state(E, (0, b1, g1, 0, b2, 0)) up to a global
    phase, from the Schmidt roots root_i = sqrt(lambda_i):
    root1 (cos b1/2, sin b1/2) (x) (cos b2/2, sin b2/2)
    + root2 exp(j g1) (-sin b1/2, cos b1/2) (x) (-sin b2/2, cos b2/2),
    one state on the last axis per element of the angles' broadcast shape."""
    c1, s1 = np.cos(0.5 * np.asarray(b1)), np.sin(0.5 * np.asarray(b1))
    c2, s2 = np.cos(0.5 * np.asarray(b2)), np.sin(0.5 * np.asarray(b2))
    w = root2 * np.exp(1j * np.asarray(g1))
    return np.stack(
        [
            root1 * c1 * c2 + w * s1 * s2,
            root1 * c1 * s2 - w * s1 * c2,
            root1 * s1 * c2 - w * c1 * s2,
            root1 * s1 * s2 + w * c1 * c2,
        ],
        axis=-1,
    )


def local_work_over_b2(entanglement: float, n: int, p: ModelParams):
    """Reference for L of qbattery.ergotropy.max_work_fixed_entanglement, as a
    function of a 1-D array of b2: the local yield after n collisions of the
    state at (b1, g1 + g2) = 0 and each b2, from `rotated_schmidt_state`,
    the phased T**n (`collision_power`) and the marginals' spectra
    (`marginal_local_work`)."""
    roots = [math.sqrt(lam) for lam in schmidt_lambdas_from_entanglement(entanglement)]
    power = collision_power(p, n)

    def work(b2) -> np.ndarray:
        c = rotated_schmidt_state(*roots, 0.0, 0.0, np.asarray(b2, dtype=float))
        rho = (c[:, :, None] * c[:, None, :].conj()).reshape(-1, 16) @ power.T
        return marginal_local_work(rho.reshape(-1, 4, 4), p)

    return work


def three_angle_work(entanglement: float, n: int, p: ModelParams, quantity: str, angles) -> float:
    """Reference for the objective of qbattery.ergotropy.max_work_fixed_entanglement:
    the G or L yield at the angles (b1, g1 + g2, b2) that the yields depend
    on, the yield taken by qbattery.ergotropy.ergotropy_after_collisions."""
    roots = [math.sqrt(lam) for lam in schmidt_lambdas_from_entanglement(entanglement)]
    c = rotated_schmidt_state(*roots, *angles)
    return ergotropy_after_collisions(np.outer(c, c.conj()), n, p, MODES[quantity])


def scipy_start_points(dim: int, settings: OptimizerSettings) -> np.ndarray:
    """Reference for qbattery.optimize.start_points: the zero vector, then
    scipy's scrambled Halton draw for the settings' seed."""
    pts = np.zeros((settings.starts, dim))
    if settings.starts > 1:
        rng = np.random.default_rng(np.random.SeedSequence(settings.seed))
        pts[1:] = qmc.Halton(d=dim, scramble=True, seed=rng).random(settings.starts - 1) * SPAN
    return pts


def scipy_nelder_mead(fun, x0, max_evals: int) -> tuple[np.ndarray, float, int, list[tuple[int, str]], bool]:
    """Reference for qbattery.optimize._nelder_mead: scipy's
    minimize(method="Nelder-Mead") with the package's options, as (x, value,
    evaluations, steps, success).  steps holds one (evaluations before it, kind) per
    finished iteration, kind being "reflect", "expand", "contract" or
    "shrink", read off how many evaluations it made and whether its
    reflection beat every earlier value."""
    values, ends = [], []

    def counted(x):
        values.append(fun(x))
        return values[-1]

    res = minimize(counted, x0, method="Nelder-Mead", callback=lambda _: ends.append(len(values)),
                   options={"maxfev": max_evals, "xatol": X_TOL, "fatol": F_TOL})
    steps, start = [], len(x0) + 1
    for end in ends:
        if end - start == 1:
            kind = "reflect"
        elif end - start == 2:
            kind = "expand" if values[start] < min(values[:start]) else "contract"
        else:
            kind = "shrink"
        steps.append((start, kind))
        start = end
    return res.x, res.fun, res.nfev, steps, res.success


def scipy_brent_root(f, lo: float, hi: float) -> tuple[float, int]:
    """Reference for one lane of qbattery.fitting._roots: scipy's brentq with
    its default tolerances, as (root, iterations)."""
    root, info = brentq(f, lo, hi, full_output=True)
    return root, info.iterations


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def csv_module_write(path: str, header: list[str], rows) -> None:
    """Reference for qbattery.cli.write_csv: the standard csv.writer, each
    cell formatted on its own."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
