"""Sequential plurality polls over social networks.

Library layout:

* `model`: instances and their friendship graphs, the voting rule,
  simulation.
* `graphkit`: graph algorithms, tree decompositions, orientation counting.
* `oracle`: brute-force solvers enumerating acyclic orientations.
* `dpkeys`: the table keys of those programs and their invariant.
* `dpsolver`: dynamic programs over nice tree decompositions.
* `reductions`: hardness gadget generators and witness orders.
* `cli`: the `socialpolls` command line tool.
"""

from .model import (
    AgentPrefs,
    Instance,
    PollInputError,
    ResourceLimitError,
    ScoreFunction,
    Simulation,
    choice,
    instance_union,
    orientation_of,
    simulate_order,
    simulate_orientation,
    winners,
)

__all__ = [
    "AgentPrefs",
    "Instance",
    "PollInputError",
    "ResourceLimitError",
    "ScoreFunction",
    "Simulation",
    "choice",
    "instance_union",
    "orientation_of",
    "simulate_order",
    "simulate_orientation",
    "winners",
]

__version__ = "0.1.0"
