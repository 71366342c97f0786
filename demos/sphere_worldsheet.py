"""Sweep the equator of the unit sphere up to the north pole.

Seeds a worldsheet with the equator and a constant "toward the pole"
velocity of magnitude pi/2, so the s = 1 slice collapses onto the pole.
Exports the sheet as an OBJ mesh next to this script.
"""

import math
import os

import numpy as np

from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser

sphere = mf.ManifoldSpec.sphere(1.0)
equator = pth.make_latitude_circle(sphere, math.pi / 2, n=128)
north = pth.PathTangentField(
    equator, (math.pi / 2) * np.tile([0.0, 0.0, 1.0], (129, 1))
)

sheet = ps.pathspace_geodesic(equator, north, (0.0, 1.0), S=32)

print("sheet energy       :", ps.sheet_energy(sheet))
print("sheet length       :", ps.sheet_length(sheet))
print("transverse residual:", ps.transverse_residual(sheet))
top = sheet.slice_path(-1)
print("top slice max distance to pole:",
      float(np.max(mf.dist(sphere, top.samples, np.array([0.0, 0.0, 1.0])))))

out = os.path.join(os.path.dirname(__file__), "sphere_worldsheet.obj")
with open(out, "w") as fh:
    fh.writelines(ser.sheet_obj_pieces(sheet))
print("wrote", out)
