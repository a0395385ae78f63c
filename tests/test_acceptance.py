"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (run pytest with ``-s``
to stream them).  Tolerances are fixed here, not tuned at run time.
"""

import time

import numpy as np
from scipy.special import roots_hermite

import blgi
from blgi.cli import _verify_checks
from blgi.cli import main as cli_main
from blgi.measurement import (
    AncillaMeterSpec,
    GaussianMeterSpec,
    ProjectiveMeterSpec,
    Workspace,
)
from blgi.protocol import (
    ExperimentConfig,
    exact_mean,
    monte_carlo,
    substream_rng,
    violation_threshold,
)
from oracle import TwoQubitState, analyzer_basis, ancilla_kraus, apply_operator, embed, gaussian_kraus

SQRT2 = np.sqrt(2.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _ancilla_config(v_total, u=1.0, v=1.0, shots=ExperimentConfig.shots, seed=42):
    return ExperimentConfig(
        meter1=AncillaMeterSpec(v_total=v_total, u=u),
        meter2=AncillaMeterSpec(v_total=v_total, u=u),
        b_spec=ProjectiveMeterSpec(v=v),
        shots=shots,
        seed=seed,
    )


def _gaussian_config(sigma, eta=1.0, v=1.0, shots=ExperimentConfig.shots, seed=42):
    return ExperimentConfig(
        meter1=GaussianMeterSpec(sigma=sigma, eta=eta),
        meter2=GaussianMeterSpec(sigma=sigma, eta=eta),
        b_spec=ProjectiveMeterSpec(v=v),
        shots=shots,
        seed=seed,
    )


def test_criterion_1_projective_limit():
    estimate = monte_carlo(_ancilla_config(v_total=1.0, shots=1_000_000, seed=101))
    target = 1 / SQRT2
    deviation = abs(estimate.mean - target)
    _report(
        "criterion 1 (projective limit)",
        deviation <= 4 * estimate.stderr,
        f"mean={estimate.mean:.6f} target={target:.6f} "
        f"|diff|={deviation:.2e} <= 4*stderr={4 * estimate.stderr:.2e}",
    )


def test_criterion_2_weak_limit():
    estimate = monte_carlo(_gaussian_config(sigma=10.0, shots=10_000_000, seed=202))
    target = (1 + np.exp(-1 / 200)) ** 2 / SQRT2
    deviation = abs(estimate.mean - target)
    pulls_above_bound = (estimate.mean - 2.0) / estimate.stderr
    ok = deviation <= 4 * estimate.stderr and pulls_above_bound > 25.0
    _report(
        "criterion 2 (weak limit)",
        ok,
        f"mean={estimate.mean:.6f} target={target:.6f} |diff|={deviation:.2e} "
        f"<= 4*stderr={4 * estimate.stderr:.2e}; exceeds bound by {pulls_above_bound:.1f} stderr",
    )


def _verify_rows() -> dict[str, float]:
    """Deviation of each ``blgi verify`` row, by name."""
    return {name: deviation for name, deviation, _ in _verify_checks()}


def test_criterion_3_oracle_agreement():
    start = time.monotonic()
    rows = _verify_rows()
    worst = max(
        rows["closed form vs instrument moments, gaussian grid"],
        rows["closed form vs instrument moments, ancilla grid"],
    )
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 60.0
    _report(
        "criterion 3 (closed form vs instrument moments)",
        ok,
        f"max |exact - analytic| = {worst:.2e} < 1e-6 over the gaussian and ancilla grids "
        f"in {elapsed:.1f}s < 60s",
    )


def test_criterion_4_threshold_identity():
    threshold = violation_threshold()
    rows = _verify_rows()
    identity_error = rows["threshold identity"]
    crossing_sigma = 1.0 / np.sqrt(-2.0 * np.log(threshold))
    crossing_error = rows["bound crossing at the threshold width"]
    below = exact_mean(_gaussian_config(sigma=float(crossing_sigma) - 0.05))
    above = exact_mean(_gaussian_config(sigma=float(crossing_sigma) + 0.05))
    ok = identity_error < 1e-12 and crossing_error < 1e-6 and below < 2.0 < above
    _report(
        "criterion 4 (threshold identity)",
        ok,
        f"|analytic(t,t,1) - 2| = {identity_error:.2e} < 1e-12 at t={threshold:.6f}; "
        f"sweep crosses 2 at sigma={crossing_sigma:.4f} (|exact - 2| = {crossing_error:.2e})",
    )


def test_criterion_5_ancilla_mid_strength():
    estimate = monte_carlo(_ancilla_config(v_total=0.6, shots=1_000_000, seed=505))
    target = 1.8**2 / SQRT2
    mean_dev = abs(estimate.mean - target)

    rng = np.random.default_rng(506)
    shots = 1_000_000
    eigenstate = 1.0  # |0> along phi = 0: its Bloch component cos(0), shared by every shot
    signals, _, _ = AncillaMeterSpec(v_total=0.6).draw(eigenstate, rng, shots, Workspace(shots))
    variance = signals.var(ddof=1)
    variance_target = 1 / 0.36 - 1
    variance_dev = abs(variance - variance_target) / variance_target
    ok = mean_dev <= 4 * estimate.stderr and variance_dev < 0.01
    _report(
        "criterion 5 (ancilla mid-strength)",
        ok,
        f"mean={estimate.mean:.6f} target={target:.6f} |diff|={mean_dev:.2e} <= "
        f"4*stderr={4 * estimate.stderr:.2e}; eigenstate variance={variance:.4f} "
        f"target={variance_target:.4f} rel.dev={variance_dev:.2%} < 1%",
    )


def test_criterion_6_classical_bound():
    extrema_ok = blgi.sign_pattern_extrema() == (-2.0, 2.0)

    num_strategies = 10_000
    shots = 10_000
    violations = 0
    for index in range(num_strategies):
        rng = substream_rng(606, index)
        spec = blgi.RandomStrategySpec(
            1 + index % 8,
            noise_sigma=float(0.25 * (index % 9)),
            invasiveness=0.5 if index % 3 == 0 else 0.0,
        )
        strategy = blgi.random_strategy(spec, rng)
        estimate = blgi.lhv_mean(strategy, shots, rng)
        if abs(estimate.mean) > 2.0 + 4 * estimate.stderr:
            violations += 1
    ok = extrema_ok and violations == 0
    _report(
        "criterion 6 (classical bound)",
        ok,
        f"sign_pattern_extrema() = (-2, 2) exactly: {extrema_ok}; "
        f"{num_strategies} random strategies x {shots} shots: {violations} violations",
    )


def _read_sweep_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# lmr_bound")
    assert lines[1] == "value,mc_mean,mc_stderr,exact,analytic"
    return np.array([[float(x) for x in line.split(",")] for line in lines[2:]])


def test_criterion_7_figure_reproduction(tmp_path):
    sigma_values = "0.25,0.4,0.65,1,1.6,2.6,4.2,6.5,10,10000"
    worst_gap = 0.0
    all_monotone = True
    worst_max_gap = 0.0
    for eta in (0.5, 1.0):
        for v in (0.8, 1.0):
            out = tmp_path / f"gaussian_eta{eta}_v{v}.csv"
            code = cli_main([
                "sweep", "--meter", "gaussian", "--eta", str(eta), "--v", str(v),
                "--axis", "sigma", "--values", sigma_values,
                "--shots", "30000", "--seed", "707", "--out", str(out),
            ])
            assert code == 0
            rows = _read_sweep_csv(out)
            exact_col, analytic_col = rows[:, 3], rows[:, 4]
            worst_gap = max(worst_gap, float(np.max(np.abs(exact_col - analytic_col))))
            all_monotone = all_monotone and bool(np.all(np.diff(analytic_col) > 0))
            worst_max_gap = max(
                worst_max_gap, abs(analytic_col.max() - (1 + v) ** 2 / SQRT2)
            )
    v_values = "0.0001,0.1,0.2,0.3,0.4,0.5,0.6,0.75"
    for u in (0.8, 1.0):
        for v in (0.8, 1.0):
            out = tmp_path / f"ancilla_u{u}_v{v}.csv"
            code = cli_main([
                "sweep", "--meter", "ancilla", "--u", str(u),
                "--v", str(v), "--axis", "v_total", "--values", v_values,
                "--shots", "30000", "--seed", "708", "--out", str(out),
            ])
            assert code == 0
            rows = _read_sweep_csv(out)
            exact_col, analytic_col = rows[:, 3], rows[:, 4]
            worst_gap = max(worst_gap, float(np.max(np.abs(exact_col - analytic_col))))
            all_monotone = all_monotone and bool(np.all(np.diff(analytic_col) < 0))
            worst_max_gap = max(
                worst_max_gap, abs(analytic_col.max() - (1 + v) ** 2 / SQRT2)
            )
    ok = worst_gap < 1e-6 and all_monotone and worst_max_gap < 1e-6
    _report(
        "criterion 7 (figure reproduction)",
        ok,
        f"8 sweep CSVs: max |exact - analytic| = {worst_gap:.2e} < 1e-6, "
        f"monotone = {all_monotone}, max over the weak end vs (1+v)^2/sqrt(2): "
        f"|diff| = {worst_max_gap:.2e} < 1e-6 (only v moves the attainable maximum)",
    )


def _invariant_kraus_completeness() -> float:
    basis = analyzer_basis(0.9)
    worst = 0.0
    nodes, gh_weights = roots_hermite(200)
    for sigma in (0.5, 1.0, 2.0):
        alpha = SQRT2 * sigma * nodes
        flat = SQRT2 * sigma * np.exp(np.log(gh_weights) + nodes * nodes)
        total = np.zeros((2, 2), dtype=complex)
        for a, w in zip(alpha, flat):
            kraus = gaussian_kraus(a, sigma, basis)
            total += w * kraus.conj().T @ kraus
        worst = max(worst, float(np.max(np.abs(total - np.eye(2)))))
    for v_ent in (0.3, 0.8, 1.0):
        total = sum(
            ancilla_kraus(s, v_ent, basis).conj().T @ ancilla_kraus(s, v_ent, basis)
            for s in (+1, -1)
        )
        worst = max(worst, float(np.max(np.abs(total - np.eye(2)))))
    projective = basis.projector0 + basis.projector1
    worst = max(worst, float(np.max(np.abs(projective - np.eye(2)))))
    return worst


def _invariant_positivity() -> float:
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10_000):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        state = TwoQubitState(rho=rho / np.trace(rho).real)
        kraus = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        _, updated = apply_operator(state, kraus)
        worst = min(float(np.linalg.eigvalsh(updated.rho).min()), worst)
    return worst


def _invariant_no_signaling() -> float:
    psi = np.array([2.0, 1.0, 0.5, 1.0], dtype=complex)
    psi /= np.linalg.norm(psi)
    state = TwoQubitState.from_rho(np.outer(psi, psi.conj()))
    before = state.reduced(2)
    worst = 0.0

    sigma = 0.7
    basis = analyzer_basis(0.8)
    nodes, gh_weights = roots_hermite(512)
    keep = gh_weights > 0
    nodes, gh_weights = nodes[keep], gh_weights[keep]
    alpha = SQRT2 * sigma * nodes
    flat = SQRT2 * sigma * np.exp(np.log(gh_weights) + nodes * nodes)
    averaged = np.zeros((4, 4), dtype=complex)
    for a, w in zip(alpha, flat):
        kraus = embed(gaussian_kraus(a, sigma, basis), 1)
        averaged += w * (kraus @ state.rho @ kraus.conj().T)
    worst = max(worst, float(np.max(np.abs(TwoQubitState.from_rho(averaged).reduced(2) - before))))

    averaged = np.zeros((4, 4), dtype=complex)
    for sign in (+1, -1):
        kraus = embed(ancilla_kraus(sign, 0.6, basis), 1)
        averaged += kraus @ state.rho @ kraus.conj().T
    worst = max(worst, float(np.max(np.abs(TwoQubitState.from_rho(averaged).reduced(2) - before))))

    averaged = np.zeros((4, 4), dtype=complex)
    for projector in (basis.projector0, basis.projector1):
        kraus = embed(projector, 1)
        averaged += kraus @ state.rho @ kraus.conj().T
    worst = max(worst, float(np.max(np.abs(TwoQubitState.from_rho(averaged).reduced(2) - before))))
    return worst


def _invariant_calibration() -> tuple[bool, str]:
    shots = 1_000_000
    phi = np.pi / 3
    target = np.cos(np.pi / 3)
    details = []
    ok = True

    rng = np.random.default_rng(809)
    eigen = np.cos(phi)  # |0>'s Bloch component along phi, shared by every shot

    spec = GaussianMeterSpec(sigma=1.5, eta=0.7)
    signals, _, _ = spec.draw(eigen, rng, shots, Workspace(shots))
    stderr = np.sqrt(spec.sigma**2 + 1) / np.sqrt(shots)
    dev = abs(signals.mean() - target)
    ok = ok and dev < 4 * stderr
    details.append(f"gaussian |dev|={dev:.2e}<= {4 * stderr:.2e}")

    spec = AncillaMeterSpec(v_total=0.5, u=0.9)
    signals, _, _ = spec.draw(eigen, rng, shots, Workspace(shots))
    stderr = np.sqrt(1 / spec.v_total**2) / np.sqrt(shots)
    dev = abs(signals.mean() - target)
    ok = ok and dev < 4 * stderr
    details.append(f"ancilla |dev|={dev:.2e}<= {4 * stderr:.2e}")

    spec = ProjectiveMeterSpec(v=0.8)
    signals = spec.draw(eigen, rng, shots, Workspace(shots))
    stderr = 1 / np.sqrt(shots)
    dev = abs(signals.mean() - spec.v * target)
    ok = ok and dev < 4 * stderr
    details.append(f"projective |dev|={dev:.2e}<= {4 * stderr:.2e}")
    return ok, "; ".join(details)


def _invariant_thread_determinism(tmp_path) -> bool:
    base = [
        "sweep", "--meter", "gaussian", "--axis", "sigma", "--values", "0.5,2,8",
        "--shots", "30000", "--seed", "810",
    ]
    out1 = tmp_path / "threads1.csv"
    out3 = tmp_path / "threads3.csv"
    assert cli_main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert cli_main(base + ["--threads", "3", "--out", str(out3)]) == 0
    return out1.read_bytes() == out3.read_bytes()


def test_criterion_8_invariant_suite(tmp_path):
    completeness = _invariant_kraus_completeness()
    min_eigenvalue = _invariant_positivity()
    signaling = _invariant_no_signaling()
    calibration_ok, calibration_detail = _invariant_calibration()
    deterministic = _invariant_thread_determinism(tmp_path)
    ok = (
        completeness < 1e-8
        and min_eigenvalue > -1e-9
        and signaling < 1e-10
        and calibration_ok
        and deterministic
    )
    _report(
        "criterion 8 (invariant suite)",
        ok,
        f"kraus completeness dev={completeness:.2e} < 1e-8; "
        f"min eigenvalue after 10^4 random updates = {min_eigenvalue:.2e} > -1e-9; "
        f"no-signaling dev={signaling:.2e} < 1e-10; calibration: {calibration_detail}; "
        f"bit-identical CSV across --threads: {deterministic}",
    )
