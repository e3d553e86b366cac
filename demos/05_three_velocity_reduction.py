"""Solving in chart time, then lifting to proper time.

On a chart the motion can be integrated as q^i(q^0) with the chart-local
Lagrangian; each solution lifts to a proper-time worldline on the unit shell
via u^0 = Gbar^(-1/2N) and tau = integral of dq^0 / u^0.  The lifted curve
satisfies the full four-velocity equation of motion.
"""

import numpy as np

import relmech as rm

gf = rm.GTensorField.from_metric(rm.minkowski())
pot = rm.uniform_field(b_field=(0.0, 0.0, 1.0))
model = rm.LagrangianModel(gf, pot, mass=1.0, charge=1.0)

t0 = rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.6, 0.0, 0.0]))
print("chart-local Lagrangian at start:", rm.three_lagrangian_value(model, t0))
print("chart-local acceleration w     :", rm.three_acceleration(model, t0))

# integrate d(q, v)/dq0 = (v, w) with fixed-step RK4 in chart time, then lift
h, n = 1e-3, 1500
traj = rm.integrate_three_velocity(model, t0, h, n)
v = traj.u[-1, 1:] / traj.u[-1, 0]
print(f"\nintegrated {n} chart-time steps; final speed "
      f"{np.linalg.norm(v):.12f} (magnetic force conserves it)")
print("lifted onto the unit shell: max |G-1| =", traj.max_constraint_drift)
print("proper time elapsed:", traj.tau[-1],
      " chart time elapsed:", traj.x[-1, 0],
      " (time dilation factor 0.8)")

# verify the lifted worldline against the four-velocity equation of motion,
# differentiating the lifted velocities numerically
a_fd = np.gradient(traj.u, traj.tau, axis=0, edge_order=2)
worst = 0.0
for k in range(1, len(traj) - 1):
    e = rm.euler_lagrange_E(model, traj.x[k], traj.u[k], a_fd[k])
    worst = max(worst, float(np.max(np.abs(e))))
print("max four-equation residual along the lift:", worst)
