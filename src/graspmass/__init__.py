"""Grasp ranking by effective mass along a post-grasp trajectory.

The library models a serial manipulator rigidly holding an object, sums
their kinetic-energy matrices at the grasp frame, and scores each grasp
candidate by the directional effective mass the combined system presents
along the motion, which sets the peak force of an unexpected collision.
"""

__version__ = "0.1.0"

from .augmented import (EffectiveMass, KineticEnergyMatrix, augment,
                        effective_mass, partition_inverse)
from .bodies import (GraspCandidate, RigidBodyInertia, TensorObjectConfig,
                     build_cuboid, build_tensor_object, com_energy_matrix,
                     transform_to_grasp)
from .chain import (ChainModel, JointSpec, JointState, LinkInertia,
                    forward_kinematics, geometric_jacobian,
                    inverse_kinematics, mass_matrix,
                    operational_space_inertia, operational_space_inertias)
from .impact import (ForceTrace, ImpactOrdering, ImpactScenario,
                     predict_ordering, simulate_impact)
from .ranking import (Aggregator, EffectiveMassProfile, RankingReport,
                      evaluate_grasps, parse_aggregator, rank_grasps)
from .scene import Scene, parse_scene, scene_from_dict, write_scene
from .spatial import (Pose, Twist, pose_compose, pose_inverse,
                      rotation_axis_angle, rotation_log, rotation_ypr, skew,
                      velocity_transform)
from .trajectory import (QuinticTrajectory, TrajectorySample, fit_quintic,
                         motion_direction, sample)
from . import errors

__all__ = [
    "__version__", "errors",
    "Pose", "Twist", "skew", "velocity_transform", "pose_compose",
    "pose_inverse", "rotation_ypr", "rotation_axis_angle", "rotation_log",
    "KineticEnergyMatrix", "EffectiveMass", "augment", "partition_inverse",
    "effective_mass",
    "RigidBodyInertia", "GraspCandidate", "TensorObjectConfig",
    "com_energy_matrix", "transform_to_grasp",
    "build_tensor_object", "build_cuboid",
    "LinkInertia", "JointSpec", "ChainModel", "JointState",
    "forward_kinematics", "geometric_jacobian", "mass_matrix",
    "operational_space_inertia", "operational_space_inertias",
    "inverse_kinematics",
    "QuinticTrajectory", "TrajectorySample", "fit_quintic", "sample",
    "motion_direction",
    "EffectiveMassProfile", "RankingReport", "Aggregator",
    "parse_aggregator", "evaluate_grasps", "rank_grasps",
    "ImpactScenario", "ForceTrace", "ImpactOrdering", "simulate_impact",
    "predict_ordering",
    "Scene", "parse_scene", "scene_from_dict", "write_scene",
]
