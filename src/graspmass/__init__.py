"""Grasp ranking by effective mass along a post-grasp trajectory.

The library models a serial manipulator rigidly holding an object, sums
their kinetic-energy matrices at the grasp frame, and scores each grasp
candidate by the directional effective mass the combined system presents
along the motion, which sets the peak force of an unexpected collision.
"""

__version__ = "0.1.0"

from .augmented import KineticEnergyMatrix, augment, effective_mass
from .bodies import (GraspCandidate, RigidBodyInertia, TensorObjectConfig,
                     build_cuboid, build_tensor_object, com_energy_matrix,
                     transform_to_grasp)
from .chain import (ChainModel, JointSpec, LinkInertia, Sweep,
                    forward_kinematics, geometric_jacobian, inverse_kinematics,
                    mass_matrix, operational_space_inertia, sweep)
from .impact import (ForceTrace, ImpactOrdering, ImpactScenario,
                     predict_ordering, simulate_impact)
from .ranking import (Aggregator, RankingReport, parse_aggregator,
                      rank_grasps, score)
from .scene import Scene, parse_scene, scene_from_dict
from .spatial import (Pose, Twist, pose_compose, pose_inverse, rotation_log,
                      rotation_ypr, skew)
from .trajectory import (QuinticTrajectory, TrajectorySample, fit_quintic,
                         motion_direction, sample)
from . import errors

__all__ = [
    "__version__", "errors",
    "Pose", "Twist", "skew", "pose_compose", "pose_inverse", "rotation_ypr",
    "rotation_log",
    "KineticEnergyMatrix", "augment", "effective_mass",
    "RigidBodyInertia", "GraspCandidate", "TensorObjectConfig",
    "com_energy_matrix", "transform_to_grasp",
    "build_tensor_object", "build_cuboid",
    "LinkInertia", "JointSpec", "ChainModel",
    "forward_kinematics", "geometric_jacobian", "mass_matrix",
    "operational_space_inertia", "inverse_kinematics", "Sweep", "sweep",
    "QuinticTrajectory", "TrajectorySample", "fit_quintic", "sample",
    "motion_direction",
    "RankingReport", "Aggregator", "score", "parse_aggregator", "rank_grasps",
    "ImpactScenario", "ForceTrace", "ImpactOrdering", "simulate_impact",
    "predict_ordering",
    "Scene", "parse_scene", "scene_from_dict",
]
