"""Checking the ideal pulse propagators against a brute-force integrator.

The selective-pulse propagators assume the rotating-wave picture: the
counter-rotating drive component and all off-resonant transitions are
dropped.  Integrating the full cosine-driven Schroedinger equation in the
lab frame, then rotating into the interaction frame, measures exactly that
approximation error.  It shrinks quadratically with the drive ratio
r = Rabi rate / nearest line spacing.

Runtime note: a single-frequency drive is periodic, so each pulse costs
one integrated drive period (a few hundred steps) plus about log2 N
squarings for N periods; the r = 1e-3 point takes milliseconds.  The
convergence study at the end integrates its full grids (~4e5 steps) in
m-step blocks, a few tens of milliseconds; the whole demo runs in well
under a second.  The acceptance suite additionally runs r = 1e-4.
"""

import numpy as np

from vspin import (
    SpinParameters,
    closed_form_eigensystem,
    convergence_study,
    drive_for_pulse,
    integrate_lab_frame,
    propagator_infidelity,
    rwa_sweep,
    single_frequency_propagator,
    to_interaction_frame,
)

params = SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.5)
e = closed_form_eigensystem(params)

print("=== One realized pi pulse on transition (1,2) ===")
strong = SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.5, gamma=1.0, h_rf=1e-3)
system = drive_for_pulse(strong, e, (1, 2), axis="Y", phase=0.0, flip=np.pi)
print(f"drive amplitude 2*gamma*h_rf = {system.drives[0].amplitude:.2e} rad/s")
print(f"carrier frequency = {system.drives[0].frequency:.6f} rad/s (= Omega_12)")
print(f"duration = {system.duration:.1f} s, default step = {system.default_step():.4f} s")

u_lab = integrate_lab_frame(system)
u_int = to_interaction_frame(u_lab, e, system.duration)
v_ideal = single_frequency_propagator(e, (1, 2), "Y", 0.0, np.pi)
print(f"unitarity defect: {np.max(np.abs(u_lab.conj().T @ u_lab - np.eye(4))):.2e}")
print(f"infidelity vs ideal pulse: {propagator_infidelity(u_int, v_ideal):.2e}")

print("\n=== Infidelity shrinks with the drive ratio ===")
for ratio, infidelity in rwa_sweep(params, transition=(1, 2), ratios=(1e-2, 1e-3)):
    print(f"  r = {ratio:g}: infidelity = {infidelity:.3e}")
print("(each factor of 10 in r buys about two orders of magnitude)")

print("\n=== Integrator convergence ===")
study = convergence_study(params, (1, 2), ratio=1e-2, refinements=2)
print("step counts:", study["step_counts"])
print("successive deviations:", [f"{d:.2e}" for d in study["deviations"]])
print(f"observed order: {study['orders'][0]:.3f} (midpoint-exponential rule is order 2)")
print(f"deviation ratio vs Richardson reference: {study['richardson_ratios'][0]:.2f}")
