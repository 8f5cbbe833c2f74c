"""Offline RL model selection via one-sided Bellman-error generalization tests.

A library and benchmark harness: exact tabular MDP oracles, nested function
classes with squared-loss ERM, offline dataset generation, Fitted Q-Iteration,
the selection loop with its tolerance schedules, and ground-truth diagnostics
and baselines for validating selection behavior at desk scale.
"""

from .basealg import (BaseAlgorithm, QSequence, fitted_q_discounted, fqi, fqi_oracle,
                      make_fqi, omega_fqi)
from .dataset import (DataSplit, OfflineDataset, StepData, generate_from_behavior,
                      generate_from_mu, load_dataset_csv, save_dataset_csv, split_dataset)
from .funcclass import (AbstractionClass, FiniteClass, FunctionClass, LinearClass,
                        NestedSequence, QFunction, greedy_policy, load_sequence, save_sequence)
from .mdp import (Policy, TabularMDP, bellman_backup, concentrability, greedy_policy_from_tables,
                  load_mdp, max_reach, occupancy, optimal_q, perf_diff_bound, policy_value,
                  regret, save_mdp, squared_bellman_errors)
from .selection import (SelectionTrace, ToleranceSchedule, generalization_test, modbe,
                        modbe_discounted, validation_loss, zeta)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
