"""Every mask in the toolbox: the three task families, geometric occlusion,
the slot roles a task mask and absent data give together, and the learnable
uncertainty weights.

Run:  python demos/03_task_masks.py
"""

import numpy as np

from settraj.data import generate_possession_game
from settraj.masking import (
    build_camera_mask,
    build_circle_mask,
    build_forecasting_mask,
    build_inference_mask,
    build_percentage_mask,
    build_uncertainty_mask,
    initial_theta,
    slot_roles,
    validate_task,
)


def show(title, mask):
    label = validate_task(mask)
    hidden = int(mask.entries.sum())
    print(f"{title}: {label}, {hidden} hidden slots of "
          f"{mask.entries.size}")


T, N = 12, 5
show("forecast last 8 frames of agents 1-4",
     build_forecasting_mask(T, 4, [1, 2, 3, 4], N))
show("hide the ball entirely", build_inference_mask(T, [0], N))
show("hide 75% of the ball at random", build_percentage_mask(T, N, 0, 0.75,
                                                             rng_seed=3))

# geometric occlusion driven by real positions
seq = generate_possession_game(1, 20, 3, rng_seed=5)[0]
show("circle mode, r=12 around the ball",
     build_circle_mask(seq.positions, seq.ball_index, 12.0))
show("camera mode, 25 degree half angle",
     build_camera_mask(seq.positions, seq.ball_index, 25.0,
                       seq.pitch.center))

# an absent observation is neither visible nor a target, hidden or not
m = build_forecasting_mask(6, 3, [1], 3)
absent = np.zeros((6, 3), dtype=np.int8)
absent[[1, 4], [0, 1]] = 1
_, visible, target = slot_roles(m, absent)
roles = np.where(visible, ".", np.where(target, "T", "-"))
print("\nslot roles, one frame a row (. visible, T target, - absent):")
print("\n".join("".join(row) for row in roles))

# uncertainty weights taper off around hidden runs
col = np.array([0, 0, 0, 1, 1, 1, 0, 0])
unc = build_uncertainty_mask(
    type(m)(col[:, None]), theta=initial_theta())
print(f"\nhidden column     {col}")
print(f"loss weights      {unc.entries[:, 0]}  (w1={unc.w1:.2f}, "
      f"w2={unc.w2:.2f})")
