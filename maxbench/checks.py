"""Output checks computed apart from the program.

Everything here uses numpy alone: the coefficient samples and the sources are
rebuilt from their descriptors and seeds, derivatives are taken with
`numpy.fft`, and matrix functions with `numpy.linalg`.  No check compares
against a stored copy of earlier output; each one tests an equation or a
bound the method must satisfy.

Conventions (those of the maxhom torus pipeline): a grid of n nodes per axis
on the unit cube with nodes at t = j/n - 1/2; derivatives are the Fourier
multiplier i k with every mode that has a Nyquist component dropped; the L2
norm carries the cell volume.  The summed fields solve

    curl v - w = -i q,    curl u + z = i r,    w = eta_eps u,   z = mu_eps v,

so div w = div z = 0; the homogenized fields solve the same system with the
constant effective tensors eta0 and mu0.
"""

from __future__ import annotations

import numpy as np

# limits (see README.md for their reasons)
MAXWELL_RTOL = 1e-7      # relative residual of each equation of the system
DIV_RTOL = 1e-7          # ||div w|| / || |k| w ||
SOURCE_RTOL = 1e-12      # program source vs the source rebuilt here
SYM_RTOL = 1e-12         # asymmetry of an effective tensor
BRACKET_ATOL = 1e-9      # Voigt-Reuss margin allowed below zero
CLOSED_FORM_ATOL = 1e-6  # effective tensors against their closed forms
ENERGY_RTOL = 1e-8       # effective tensors against the corrector energy
RATE_RANGE = (0.65, 1.3)  # fitted log-log slope of the four field errors
ERROR_RTOL = 1e-10       # reported error norms vs norms recomputed here
IDENTITY_RTOL = 1e-5     # corrector divergence identity, relative defect

FIELDS = ("u", "v", "w", "z")


# ---------------------------------------------------------------------------
# grid, coefficients and sources rebuilt from their descriptors
# ---------------------------------------------------------------------------


def wavenumbers(n: int) -> np.ndarray:
    """Derivative wavenumbers (3, n, n, n) on the unit cube; every mode with
    a Nyquist component is dropped."""
    m = np.stack(np.meshgrid(*(np.rint(np.fft.fftfreq(n) * n),) * 3, indexing="ij"))
    nyq = np.any(m == -(n // 2), axis=0)
    return np.where(nyq[None], 0.0, 2.0 * np.pi * m)


def _fractional(n: int, periods: int) -> np.ndarray:
    t = periods * (np.arange(n) / n - 0.5)
    return np.stack(np.meshgrid(t, t, t, indexing="ij"))


def coefficient(desc: tuple, n: int, periods: int = 1) -> np.ndarray:
    """Samples (3, 3, n, n, n) of x -> a(periods * x) for a catalogue
    descriptor (kind, params, seed); only the kinds the workloads use."""
    kind, p, seed = desc
    t = _fractional(n, periods)
    out = np.zeros((3, 3, n, n, n))
    if kind == "trig_isotropic":
        prof = p["base"] + p["amplitude"] * np.cos(
            2.0 * np.pi * p.get("mode", 1) * t[p["axis"]])
        for d in range(3):
            out[d, d] = prof
        return out
    if kind == "trig_matrix":
        rng = np.random.default_rng(seed)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        phases = rng.uniform(0, 2 * np.pi, size=3)
        for d in range(3):
            prof = p["base"][d] * (1.0 + p["amplitude"] * np.cos(
                2 * np.pi * p["modes"][d] * t[d] + phases[d]))
            out += np.outer(rot[:, d], rot[:, d])[:, :, None, None, None] * prof
        return out
    raise ValueError(f"no closed form for coefficient kind {kind!r}")


def divfree_source(n: int, seed: int, max_mode: int = 8,
                   decay: float = 0.5) -> np.ndarray:
    """The seeded band-limited divergence-free source the pipeline draws:
    Gaussian Fourier coefficients on modes 0 < |m|_inf <= max_mode, weights
    decay^|m|_1, real part, then the Leray projection."""
    m = np.rint(np.fft.fftfreq(n) * n).astype(int)
    mg = np.stack(np.meshgrid(m, m, m, indexing="ij"))
    linf = np.max(np.abs(mg), axis=0)
    sel = (linf <= max_mode) & (linf > 0)
    rng = np.random.default_rng(seed)
    spec = np.zeros((3, n, n, n), dtype=complex)
    cnt = int(sel.sum())
    w = decay ** np.sum(np.abs(mg), axis=0)[sel]
    spec[:, sel] = (rng.standard_normal((3, cnt))
                    + 1j * rng.standard_normal((3, cnt))) * w
    vals = np.fft.ifftn(spec, axes=(1, 2, 3)).real * n**3
    return project_divfree(vals, wavenumbers(n))


def project_divfree(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    vh = np.fft.fftn(v, axes=(1, 2, 3))
    k2 = np.sum(k * k, axis=0)
    kv = np.sum(k * vh, axis=0)
    coef = np.divide(kv, k2, out=np.zeros_like(kv), where=k2 > 0)
    return np.fft.ifftn(vh - k * coef, axes=(1, 2, 3))


# ---------------------------------------------------------------------------
# spectral calculus and pointwise algebra
# ---------------------------------------------------------------------------


def curl(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    vh = np.fft.fftn(v, axes=(1, 2, 3))
    out = np.stack([k[1] * vh[2] - k[2] * vh[1],
                    k[2] * vh[0] - k[0] * vh[2],
                    k[0] * vh[1] - k[1] * vh[0]])
    return np.fft.ifftn(1j * out, axes=(1, 2, 3))


def div(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    vh = np.fft.fftn(v, axes=(1, 2, 3))
    return np.fft.ifftn(1j * np.sum(k * vh, axis=0))


def div_ratio(v: np.ndarray, k: np.ndarray) -> float:
    """||div v|| / || |k| v ||, computed in Fourier space."""
    vh = np.fft.fftn(v, axes=(1, 2, 3))
    num = np.sum(np.abs(np.sum(k * vh, axis=0)) ** 2)
    den = np.sum(np.sum(k * k, axis=0) * np.sum(np.abs(vh) ** 2, axis=0))
    return float(np.sqrt(num / den)) if den > 0 else 0.0


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise (3, 3, grid) @ (3, grid), or a constant (3, 3) matrix."""
    if a.ndim == 2:
        return np.einsum("ij,j...->i...", a, v)
    return np.einsum("ij...,j...->i...", a, v)


def matrix_power(a: np.ndarray, p: float) -> np.ndarray:
    """Pointwise power of a symmetric positive definite matrix field."""
    w, q = np.linalg.eigh(np.moveaxis(a, (0, 1), (-2, -1)))
    out = (q * w[..., None, :] ** p) @ np.swapaxes(q, -1, -2)
    return np.moveaxis(out, (-2, -1), (0, 1))


def l2(v: np.ndarray) -> float:
    """L2 norm on the unit cell (volume 1), all components."""
    nodes = v.shape[-3] * v.shape[-2] * v.shape[-1]
    return float(np.sqrt(np.sum(np.abs(v) ** 2) / nodes))


def _rel(num: float, den: float) -> float:
    return num / den if den > 0 else num


# ---------------------------------------------------------------------------
# checks; each returns {name: (value, limit, ok)}
# ---------------------------------------------------------------------------


def maxwell_system(f: dict, q: np.ndarray, r: np.ndarray, eta, mu,
                   k: np.ndarray, tag: str) -> dict:
    """Residuals of the torus Maxwell system for fields f = {u, v, w, z};
    eta / mu are pointwise (3, 3, grid) samples or constant (3, 3) matrices."""
    u, v, w, z = (f[n] for n in FIELDS)
    res = {
        "curl_v": _rel(l2(curl(v, k) - w + 1j * q), l2(q)),
        "curl_u": _rel(l2(curl(u, k) + z - 1j * r), l2(r)),
        "w_eta_u": _rel(l2(w - matvec(eta, u)), l2(w)),
        "z_mu_v": _rel(l2(z - matvec(mu, v)), l2(z)),
    }
    out = {f"maxwell.{tag}.{n}": (val, MAXWELL_RTOL, val <= MAXWELL_RTOL)
           for n, val in res.items()}
    for n, x in (("div_w", w), ("div_z", z)):
        val = div_ratio(x, k)
        out[f"maxwell.{tag}.{n}"] = (val, DIV_RTOL, val <= DIV_RTOL)
    return out


def source_match(program: np.ndarray, rebuilt: np.ndarray, tag: str) -> dict:
    val = _rel(l2(program - rebuilt), l2(rebuilt))
    return {f"source.{tag}": (val, SOURCE_RTOL, val <= SOURCE_RTOL)}


def effective_tensor(a0: np.ndarray, samples: np.ndarray, tag: str,
                     closed_form=None) -> dict:
    """Symmetry and Voigt-Reuss bracketing of an effective tensor; the
    bracket comes from the coefficient samples."""
    a0 = np.asarray(a0, dtype=float)
    flat = samples.reshape(3, 3, -1)
    arith = flat.mean(axis=-1)
    harm = np.linalg.inv(matrix_power(samples, -1.0).reshape(3, 3, -1).mean(axis=-1))
    asym = float(np.max(np.abs(a0 - a0.T)) / np.max(np.abs(a0)))
    lower = float(np.linalg.eigvalsh(a0 - harm).min())
    upper = float(np.linalg.eigvalsh(arith - a0).min())
    out = {
        f"effective.{tag}.symmetry": (asym, SYM_RTOL, asym <= SYM_RTOL),
        f"effective.{tag}.reuss_margin": (lower, -BRACKET_ATOL, lower >= -BRACKET_ATOL),
        f"effective.{tag}.voigt_margin": (upper, -BRACKET_ATOL, upper >= -BRACKET_ATOL),
    }
    if closed_form is not None:
        dev = float(np.max(np.abs(a0 - np.asarray(closed_form))))
        out[f"effective.{tag}.closed_form"] = (dev, CLOSED_FORM_ATOL,
                                               dev <= CLOSED_FORM_ATOL)
    return out


def effective_energy(a0: np.ndarray, samples: np.ndarray, y: np.ndarray,
                     tag: str) -> dict:
    """Energy identity of the cell solution: a0 = mean((1 + Y)^T a (1 + Y)),
    which holds because the corrector columns are a-orthogonal to every
    periodic gradient, grad P_j among them."""
    one_y = y + np.eye(3)[:, :, None, None, None]
    flux = np.einsum("kl...,lj...->kj...", samples, one_y).reshape(3, 3, -1)
    energy = np.einsum("kin,kjn->ij", one_y.reshape(3, 3, -1), flux).real
    energy /= flux.shape[-1]
    dev = float(np.max(np.abs(energy - np.asarray(a0))) / np.max(np.abs(a0)))
    return {f"effective.{tag}.energy": (dev, ENERGY_RTOL, dev <= ENERGY_RTOL)}


def convergence_rate(eps: list, errors: dict) -> dict:
    """Strict decrease of every field error as eps halves, and a fitted
    log-log slope inside RATE_RANGE (the torus O(eps) regime)."""
    out = {}
    lo, hi = RATE_RANGE
    x = np.log(np.asarray(eps, dtype=float))
    for n in FIELDS:
        e = np.asarray(errors[n], dtype=float)
        drop = float(np.max(e[1:] / e[:-1]))
        out[f"rate.{n}.max_ratio"] = (drop, 1.0, drop < 1.0)
        slope = float(np.polyfit(x, np.log(e), 1)[0])
        out[f"rate.{n}.slope"] = (slope, lo, lo <= slope <= hi)
    return out


def reported_errors(sol_fields: dict, approximants: dict, reported: dict,
                    tag: str) -> dict:
    """The reported error norms equal ||field - approximant|| recomputed here."""
    out = {}
    for n in FIELDS:
        own = l2(sol_fields[n] - approximants[n])
        val = _rel(abs(own - reported[n]), own)
        out[f"errors.{tag}.{n}"] = (val, ERROR_RTOL, val <= ERROR_RTOL)
    return out


def corrector_divergence(f: np.ndarray, a: np.ndarray, a_sqrt: np.ndarray,
                         y: np.ndarray, a0: np.ndarray, l: int, j: int,
                         k: np.ndarray) -> float:
    """Relative defect of the divergence identity of the vector corrector f_lj:

        div A^{1/2} f_lj = i (A0^{1/2})_lj - i <e_l, A (1 + Y_A) c_j>,
        c_j = A0^{-1/2} e_j.
    """
    w, qv = np.linalg.eigh(np.asarray(a0, dtype=float))
    a0_sqrt = qv @ np.diag(np.sqrt(w)) @ qv.T
    c = (qv @ np.diag(1.0 / np.sqrt(w)) @ qv.T)[:, j]
    lhs = div(matvec(a_sqrt, f), k)
    one_y_c = np.einsum("mk...,k->m...", y, c) + c[:, None, None, None]
    tilde_c = np.einsum("m...,m...->...", a[l], one_y_c)
    target = 1j * a0_sqrt[l, j] - 1j * tilde_c
    return _rel(l2(lhs - target), l2(target))


def corrector_identities(correctors, a: np.ndarray, a0: np.ndarray,
                         k: np.ndarray, tag: str) -> dict:
    """Divergence identity of all nine f_lj of one branch; a is the branch's
    main coefficient A on the cell grid."""
    a_sqrt = matrix_power(a, 0.5)
    y = correctors.a_cell.Y.values
    worst = max(corrector_divergence(correctors.f[l][j].values, a, a_sqrt, y, a0,
                                     l, j, k)
                for l in range(3) for j in range(3))
    return {f"corrector.{tag}.div_identity": (worst, IDENTITY_RTOL,
                                              worst <= IDENTITY_RTOL)}
