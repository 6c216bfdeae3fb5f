"""Differential-drive ground robot case study.

A two-level hierarchy: an outer trajectory loop with bicycle-model
kinematics and a dynamic-inversion controller, feeding wheel-speed
references to two inner DC-motor loops with PID controllers.  All default
parameters are exposed through :class:`RobotParams`.

The module is the one description of the case study's loops: :data:`LOOPS`
names each loop, in fire order, with its trace columns, :data:`LEVELS`
groups them into the hierarchy's levels, whose parameters, noise and
initial mean a level's loops share, :data:`LINEAR` names the linear loops,
:data:`COUPLED_READS` the loops whose plant states coupled mode reads,
:func:`build_model` builds a loop's model and :func:`make_controllers`
wires the loops' controllers together.  :mod:`cpsrecover.config`
validates, defaults and builds whatever loops these list, and the
simulator runs whatever loops it is given.

The continuous-time dynamics are discretized with an explicit Euler step.
The outer loop runs at 10 Hz, the inner loops at 100 Hz.  The models and
controllers run every tick, so their matrix products are written
``a.dot(b)``, as :mod:`cpsrecover.estimator` explains.  The motor's Euler
step, which runs on 95 % of a run's ticks, is the one *float kernel*: see
:func:`dc_motor_model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .models import SubsystemModel, euler_discretize, identity

OUTER = "outer"
INNER_1 = "inner-1"
INNER_2 = "inner-2"


class Columns(NamedTuple):
    """A loop's trace column names: one per state, sensor and input."""

    state: tuple
    meas: tuple
    input: tuple


# every loop, in fire order: loops due at one instant fire in this order, so
# the outer loop's wheel references are fresh for the inner loops.  Checks
# that must not build the models read a loop's sizes from its columns.
LOOPS = {
    OUTER: Columns(("x", "y", "theta"), ("x", "y", "theta"), ("v", "omega")),
    INNER_1: Columns(("i", "w"), ("w",), ("V",)),
    INNER_2: Columns(("i", "w"), ("w",), ("V",)),
}
# each level's loops, in fire order.  A level names the RobotParams rate
# ``<level>_rate``, the noise stds ``<level>_q_std`` and ``<level>_r_std``,
# and the ``init`` mean ``<level>`` that its loops share
LEVELS = {"outer": (OUTER,), "inner": (INNER_1, INNER_2)}
# the loops whose models are linear
LINEAR = LEVELS["inner"]
# the loops whose plant states, their wheel speeds, the outer plant's input
# reads in coupled mode, left wheel first
COUPLED_READS = (INNER_1, INNER_2)


@dataclass
class RobotParams:
    """Physical and controller parameters with case-study defaults."""

    wheel_radius: float = 0.05        # m
    wheel_separation: float = 0.5     # m
    # Small finite stand-in for the l -> 0 offset limit.  The omega command
    # scales as 1/l, so values much below ~0.1 destabilize the 10 Hz Euler
    # loop (heading steps exceed a radian); 0.2 keeps the closed loop calm.
    inversion_offset: float = 0.2     # m
    k1_gain: float = 1.0
    k2_gain: float = 1.0
    motor_resistance: float = 1.0     # Ohm
    motor_inductance: float = 0.5     # H
    k_torque: float = 0.01
    k_emf: float = 0.01
    k_friction: float = 0.01
    inertia: float = 0.01
    kp: float = 13.2
    kd: float = 0.275
    ki: float = 1.525
    outer_rate: float = 10.0          # Hz
    inner_rate: float = 100.0         # Hz
    # PID outputs are clamped to keep desk-scale runs bounded under the
    # very large default motor noise.
    voltage_limit: float = 500.0

    def __post_init__(self):
        for name in ("wheel_radius", "wheel_separation", "inversion_offset",
                     "motor_inductance", "inertia"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def bicycle_model(dt: float, Q: np.ndarray, R: np.ndarray,
                  mu0: np.ndarray, Sigma0: np.ndarray) -> SubsystemModel:
    """Outer-loop kinematics: state [x, y, theta], input [v, omega]."""

    def deriv(x, u):
        v, w = u
        return np.array([v * math.cos(x[2]), v * math.sin(x[2]), w])

    def jac_deriv(x, u):
        v = u[0]
        return np.array([[0.0, 0.0, -v * math.sin(x[2])],
                         [0.0, 0.0, v * math.cos(x[2])],
                         [0.0, 0.0, 0.0]])

    f, jac_A = euler_discretize(deriv, jac_deriv, dt)
    eye3 = identity(3)             # read-only, shared
    return SubsystemModel(
        id=OUTER, n_x=3, n_y=3, n_u=2,
        f=f, g=lambda x, u: x.copy(), jac_A=jac_A, jac_C=lambda x, u: eye3,
        Q=np.asarray(Q, float), R=np.asarray(R, float), dt=dt,
        mu0=mu0, Sigma0=Sigma0)


def dc_motor_model(motor_id: str, dt: float, params: RobotParams,
                   Q: np.ndarray, R: np.ndarray,
                   mu0: np.ndarray, Sigma0: np.ndarray) -> SubsystemModel:
    """Inner-loop DC motor: state [current, angular velocity], input voltage.

    The dynamics are linear, so ``jac_A`` and ``jac_C`` each return one
    read-only Jacobian built with the model.
    """
    Rm, L = params.motor_resistance, params.motor_inductance
    A_c = np.array([[-Rm / L, -params.k_emf / L],
                    [params.k_torque / params.inertia,
                     -params.k_friction / params.inertia]])
    B_c = np.array([1.0 / L, 0.0])

    def deriv(x, u):
        return A_c.dot(x) + B_c * u[0]

    f_ref, jac_A = euler_discretize(deriv, lambda x, u: A_c, dt)
    A = jac_A(None, None)          # constant, so built once and shared
    C = np.array([[0.0, 1.0]])
    A.flags.writeable = C.flags.writeable = False
    b0, b1 = B_c.tolist()
    consts = b0 + b1 + dt          # not finite if one of them is not

    # The Euler step is a float kernel: numpy sums the products of
    # A_c.dot(x), and the element-wise rest runs on Python floats and builds
    # its array once, where numpy would dispatch each operation on two
    # elements (1.5 against 2.8 us a call on a 2-core Xeon, numpy 2.4).  It
    # takes that path only when every input is finite.  Where two NaN
    # operands meet in a sum or product, which one's sign and payload the
    # result keeps depends on the operand order the compiled code chose: a
    # numpy array operation keeps the first one's, a numpy scalar operation
    # the second one's, and CPython 3.11 one or the other depending on
    # whether it has specialised that operation yet.  From finite inputs
    # every NaN that arises is the same default NaN, so on any other input
    # ``f`` evaluates ``f_ref``, and either way its result is ``f_ref``'s
    # bit for bit.  The property test checks that with the function warm and
    # with a cold copy of its bytecode, since only the cold copy catches a
    # missing guard.
    def f(x, u):
        x0, x1 = x.tolist()
        u0 = u.item(0)
        if not math.isfinite(x0 + x1 + u0 + consts):
            return f_ref(x, u)
        d0, d1 = A_c.dot(x).tolist()
        return np.array([x0 + (d0 + b0 * u0) * dt, x1 + (d1 + b1 * u0) * dt])

    return SubsystemModel(
        id=motor_id, n_x=2, n_y=1, n_u=1,
        f=f, g=lambda x, u: C.dot(x), jac_A=lambda x, u: A,
        jac_C=lambda x, u: C,
        Q=np.asarray(Q, float), R=np.atleast_2d(np.asarray(R, float)), dt=dt,
        mu0=mu0, Sigma0=Sigma0)


def build_model(sid: str, params: RobotParams, noise: dict,
                init: dict) -> SubsystemModel:
    """Loop ``sid``'s model, from its level's rate in ``params``, noise
    stds in ``noise`` and mean in ``init``, with a zero initial
    covariance."""
    level = next((lv for lv, sids in LEVELS.items() if sid in sids), None)
    if level is None:
        raise ValueError(f"loop {sid!r} is in no level of robot.LEVELS")
    n_x, n_y = len(LOOPS[sid].state), len(LOOPS[sid].meas)
    dt = 1.0 / getattr(params, f"{level}_rate")
    Q = noise[f"{level}_q_std"] ** 2 * np.eye(n_x)
    R = noise[f"{level}_r_std"] ** 2 * np.eye(n_y)
    mu0, Sigma0 = np.asarray(init[level], float), np.zeros((n_x, n_x))
    if sid == OUTER:
        return bicycle_model(dt, Q, R, mu0=mu0, Sigma0=Sigma0)
    return dc_motor_model(sid, dt, params, Q, R, mu0=mu0, Sigma0=Sigma0)


def reference_trajectory(t: float, position, prev_heading: float = 0.0):
    """Circular reference of radius 2 with heading toward the reference point.

    The heading uses atan2 of the vector from the current position estimate
    to the reference point; when the two coincide the previous heading
    reference is held.
    """
    rx, ry = 2.0 * math.cos(t), 2.0 * math.sin(t)
    dx, dy = rx - position[0], ry - position[1]
    if dx == 0.0 and dy == 0.0:
        heading = prev_heading
    else:
        heading = math.atan2(dy, dx)
    return np.array([rx, ry, heading])


def reference_rate(t: float):
    """Analytic derivative of the circular reference position."""
    return np.array([-2.0 * math.sin(t), 2.0 * math.cos(t)])


def dynamic_inversion_control(x_hat, ref, ref_rate, params: RobotParams):
    """First-order dynamic inversion on a point offset ahead of the robot."""
    theta = x_hat[2]
    l = params.inversion_offset
    M = np.array([[math.cos(theta), math.sin(theta)],
                  [-math.sin(theta) / l, math.cos(theta) / l]])
    e = np.array([ref_rate[0] + params.k1_gain * (ref[0] - x_hat[0]),
                  ref_rate[1] + params.k2_gain * (ref[1] - x_hat[1])])
    return M.dot(e)


def wheel_transform(u_outer, params: RobotParams):
    """Body velocity command [v, omega] to [left, right] wheel speeds."""
    v, w = u_outer
    sep = params.wheel_separation
    return (np.array([2.0 * v - w * sep, 2.0 * v + w * sep])
            / (2.0 * params.wheel_radius))


def wheel_transform_inverse(wheel_speeds, params: RobotParams):
    """Achieved wheel speeds back to body [v, omega]."""
    wl, wr = wheel_speeds
    v = params.wheel_radius * (wl + wr) / 2.0
    w = params.wheel_radius * (wr - wl) / params.wheel_separation
    return np.array([v, w])


@dataclass
class PidState:
    """Integral accumulator and previous error of one PID controller."""

    integral: float = 0.0
    prev_error: float = 0.0


def pid_control(state: PidState, error: float, dt: float,
                params: RobotParams) -> float:
    """Positional PID with rectangle-rule integral and backward-difference
    derivative; output clamped to the voltage limit (anti-windup: the
    integral is not advanced while the output saturates)."""
    integral = state.integral + error * dt
    derivative = (error - state.prev_error) / dt
    out = params.kp * error + params.ki * integral + params.kd * derivative
    limit = params.voltage_limit
    if out > limit:
        out = limit
    elif out < -limit:
        out = -limit
    else:
        state.integral = integral
    state.prev_error = error
    return out


def make_controllers(params: RobotParams,
                     plant_state: Callable[[str], np.ndarray]):
    """Each loop's controller, ``(x_hat, t) -> u``, and the input the outer
    plant takes in coupled mode.

    The outer controller publishes the wheel-speed references of its
    command, which the motor loops' PID controllers track at the inner
    period ``1 / params.inner_rate``.  In coupled mode the outer plant is
    driven by the body velocity of the motors' achieved wheel speeds;
    ``plant_state(loop id)`` reads a motor's plant state.  Returns
    ``({loop id: controller}, {loop id: applied input})``.
    """
    dt = 1.0 / params.inner_rate
    # Python floats: the PIDs' arithmetic is the same IEEE operations as on
    # numpy scalars, at less cost per call
    wheel_refs = wheel_transform(np.zeros(2), params).tolist()
    prev_heading = 0.0

    def outer(x_hat, t):
        nonlocal wheel_refs, prev_heading
        ref = reference_trajectory(t, x_hat, prev_heading)
        prev_heading = ref[2]
        u = dynamic_inversion_control(x_hat, ref, reference_rate(t), params)
        wheel_refs = wheel_transform(u, params).tolist()
        return u

    def inner(index):
        pid = PidState()

        def control(x_hat, t):
            error = wheel_refs[index] - float(x_hat[1])
            return np.array([pid_control(pid, error, dt, params)])

        return control

    def achieved(u):
        return wheel_transform_inverse(
            [plant_state(sid)[1] for sid in COUPLED_READS], params)

    controllers = {OUTER: outer, INNER_1: inner(0), INNER_2: inner(1)}
    return controllers, {OUTER: achieved}
