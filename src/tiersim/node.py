"""Sensor node behavioral model.

Covers the five-state lifecycle machine, the method-gated device
property registry, and the duty cycle's steps (sleep phase plus an
active phase whose shape depends on the inference mode). The node lists
the steps; timing them on the event queue and debiting them from the
energy ledger is the engine's job.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field

from .model import (
    BatteryState,
    InferenceMode,
    NodeState,
    SimulationError,
    check_intervals,
    check_node_id,
)
from .energy import EnergyTable


class LifecycleEvent(enum.Enum):
    """Inputs that drive the node state machine."""

    PROVISIONING_COMPLETE = "provision-complete"
    PROPERTIES_UPDATED = "properties-updated"
    CONFIG_CONFIRM = "config-confirm"
    CONFIG_REJECT = "config-reject"
    IDLE_COMMAND = "idle-command"
    RESET_COMMAND = "reset-command"


#: The six legal lifecycle transitions; anything else is a protocol violation.
TRANSITIONS: dict[tuple[NodeState, LifecycleEvent], NodeState] = {
    (NodeState.INITIAL, LifecycleEvent.PROVISIONING_COMPLETE): NodeState.UNLOCKED,
    (NodeState.UNLOCKED, LifecycleEvent.PROPERTIES_UPDATED): NodeState.LOCKED,
    (NodeState.LOCKED, LifecycleEvent.CONFIG_CONFIRM): NodeState.WORKING,
    (NodeState.LOCKED, LifecycleEvent.CONFIG_REJECT): NodeState.UNLOCKED,
    (NodeState.WORKING, LifecycleEvent.IDLE_COMMAND): NodeState.IDLE,
    (NodeState.IDLE, LifecycleEvent.RESET_COMMAND): NodeState.UNLOCKED,
}

#: The inverse table, read by a SET of ``state``: each (src, dst) pair above is unique.
EVENT_FOR_STEP: dict[tuple[NodeState, NodeState], LifecycleEvent] = {
    (src, dst): event for (src, event), dst in TRANSITIONS.items()
}


class PropertyMethod(enum.Enum):
    SET = "SET"
    GET = "GET"
    ADD = "ADD"


#: Device property registry: each property's target device ("sensor" or
#: "gateway") and the methods it takes.
PROPERTY_TABLE: dict[str, tuple[str, frozenset[PropertyMethod]]] = {
    name: (target, frozenset(PropertyMethod(m) for m in methods.split("/")))
    for name, methods, target in (
        ("tf_model_bytes", "SET", "sensor"),
        ("tf_model_size", "SET", "sensor"),
        ("provisioned_nodes", "SET/GET/ADD", "gateway"),
        ("gateway_id", "GET", "gateway"),
        ("sensor_id", "GET", "sensor"),
        ("sleep_period", "SET/GET", "sensor"),
        ("state", "SET/GET", "sensor"),
        ("inference_mode", "SET/GET", "sensor"),
    )
}


@dataclass(frozen=True)
class PropertyCommand:
    """A method applied to one named property of one target device."""

    node_id: str
    name: str
    method: PropertyMethod = PropertyMethod.SET
    value: object | None = None
    at_ms: float = field(default=0.0, metadata={"interval": "[0, inf)"})  # arrival at the gateway

    def __post_init__(self) -> None:
        check_node_id(self.node_id)  # an unknown node's id is written to the trace
        check_intervals(self)


@dataclass
class SensorNode:
    """One battery-powered sensing device.

    The node owns its lifecycle state, inference mode, battery, and
    sleep period. It never changes mode on its own inside a cycle;
    mode changes arrive as property commands (or, in on-device mode, from
    the sensor heuristic between cycles). Its anomaly windows, one per
    tier, are the engine's.
    """

    node_id: str
    state: NodeState = NodeState.INITIAL
    mode: InferenceMode = InferenceMode.SENSOR
    battery: BatteryState = field(default_factory=BatteryState)
    # 0 runs back-to-back windows; battery studies use 30 s
    sleep_period_ms: float = field(default=0.0, metadata={"interval": "[0, inf)"})
    cycle_index: int = 0
    epoch: int = 0  # WORKING spells entered; a duty cycle belongs to one
    # (mode, sleep period, table, steps) of the last cycle planned
    _cycle: tuple | None = field(default=None, init=False, repr=False, compare=False)

    __post_init__ = check_intervals

    # -- state machine ------------------------------------------------

    def step_state(self, event: LifecycleEvent) -> NodeState | None:
        """Apply a lifecycle event: the new state, or None, leaving the
        node as it is, when the event has no edge from the current state."""
        state = TRANSITIONS.get((self.state, event))
        if state is not None:
            self.state = state
        return state

    # -- device properties ----------------------------------------------

    def apply_command(self, cmd: PropertyCommand) -> tuple[str, object]:
        """Apply a SET/GET property command per the registry gating.

        Returns ``(status, value)``. The status is "ok", or why the command
        failed: "unknown-property", "method-not-allowed", "invalid-value" or
        "protocol-violation". The value is a GET's reading, or the lifecycle
        event a SET of ``state`` stepped; None otherwise.
        """
        refusal = _gate(cmd, "sensor")
        if refusal:
            return refusal
        if cmd.method is PropertyMethod.GET:
            return "ok", self._get_property(cmd.name)
        return self._set_property(cmd.name, cmd.value)

    def _get_property(self, name: str) -> object:
        if name == "sensor_id":
            return self.node_id
        if name == "sleep_period":
            return self.sleep_period_ms
        if name == "state":
            return self.state.value
        return self.mode.value  # inference_mode, the last readable property

    def _set_property(self, name: str, value: object) -> tuple[str, object]:
        if name == "sleep_period":
            # the loader's rule for a number: finite, and not a boolean
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 <= value <= sys.float_info.max):
                return "invalid-value", None
            self.sleep_period_ms = float(value)  # takes effect from the next cycle
            return "ok", None
        if name == "inference_mode":
            try:
                mode = value if isinstance(value, InferenceMode) else InferenceMode(str(value))
            except ValueError:
                return "invalid-value", None
            self.mode = mode  # the engine empties the node's windows on a change
            return "ok", None
        if name == "state":
            try:
                target = value if isinstance(value, NodeState) else NodeState(str(value))
            except ValueError:
                return "invalid-value", None
            event = EVENT_FOR_STEP.get((self.state, target))
            if event is None:
                return "protocol-violation", None
            self.step_state(event)
            # callers need the lifecycle event to continue orchestration
            return "ok", event
        # tf_model_bytes or tf_model_size: accepted and dropped, as neither
        # can be read back and a model swap does not alter the prediction
        # oracle mid-run.
        return "ok", None

    # -- duty cycle ------------------------------------------------------

    def plan_cycle(self, table: EnergyTable) -> tuple[tuple[str, float, str, float, str], ...]:
        """The steps of the next duty cycle, in order.

        Each step is ``(kind, duration_ms, operation, energy_mj, detail)``:
        its trace event kind, how long it takes, its energy ledger tag, what
        it costs and its op row's trace detail. The cycle is a sleep phase
        followed by the active phase: a full sampling window, then either
        on-device inference or compress-and-transmit. The steps are built
        again only when the mode, the sleep period or the table is a
        different object than at the last cycle; identity, not ``==``, so
        that ``-0.0`` after ``0.0`` still gets its own ``detail`` and energy
        text.
        """
        if self.state is not NodeState.WORKING:
            raise SimulationError(
                f"node {self.node_id} cannot run a cycle in state {self.state.value}"
            )
        self.cycle_index += 1
        mode, sleep, cached = self.mode, self.sleep_period_ms, self._cycle
        if cached is None or cached[0] is not mode or cached[1] is not sleep or cached[2] is not table:
            steps = (("sleep", sleep, "deep_sleep", table.sleep_energy_mj(sleep),
                      f"duration_ms={sleep}"),
                     *((kind, cost.duration_ms, operation, cost.energy_mj,
                        f"duration_ms={cost.duration_ms}")
                       for kind, operation, cost in table.active_phase(mode)))
            cached = self._cycle = (mode, sleep, table, steps)
        return cached[3]


def _gate(cmd: PropertyCommand, target: str) -> tuple[str, None] | None:
    """``(status, None)`` if the registry refuses ``cmd`` on ``target``, else None."""
    entry = PROPERTY_TABLE.get(cmd.name)
    if entry is None or entry[0] != target:
        return "unknown-property", None
    if cmd.method not in entry[1]:
        return "method-not-allowed", None
    return None
