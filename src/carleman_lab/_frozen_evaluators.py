"""Evaluator sources of the bundled runs, generated by scripts/freeze_evaluators.py.

Do not edit; rerun the script.  SOURCES maps a family key (see
fields._Symbolic) and a multi-index to the source sympy's lambdify wrote for
that derivative; NAMES maps each global name the sources read to the numpy
attribute lambdify bound it to.
"""

SYMPY_VERSION = '1.14.0'

NAMES = {
    'cos': 'cos',
    'exp': 'exp',
    'less': 'less',
    'nan': 'nan',
    'select': 'select',
    'sin': 'sin',
    'sqrt': 'sqrt',
}

SOURCES = {
    ('affine', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1):\n'
            '    return aff_c0 + aff_ct*t + aff_cx1*x1\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1):\n'
            '    return aff_cx1\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1):\n'
            '    return 0\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1):\n'
            '    return aff_ct\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1):\n'
            '    return 0\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1):\n'
            '    return 0\n'
        ),
    },
    ('affine', 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return aff_cx2\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return 0\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return aff_cx1\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return 0\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return 0\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return aff_ct\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return 0\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return 0\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2):\n'
            '    return 0\n'
        ),
    },
    ('bump4', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, bump_amp, bump_cx1, bump_rt, bump_rx1, bump_tc):\n'
            '    x0 = (-bump_cx1 + x1)**2/bump_rx1**2 + (-bump_tc + t)**2/bump_rt**2\n'
            '    return bump_amp*select([less(x0, 1),True], [(1 - x0)**4,0.0], default=nan)\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, bump_amp, bump_cx1, bump_rt, bump_rx1, bump_tc):\n'
            '    x0 = bump_rx1**(-2.0)\n'
            '    x2 = x0*(-bump_cx1 + x1)**2 + (-bump_tc + t)**2/bump_rt**2\n'
            '    return bump_amp*select([less(x2, 1),True], [-4*x0*(1 - x2)**3*(-2*bump_cx1 + 2*x1),0], default=nan)\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, bump_amp, bump_cx1, bump_rt, bump_rx1, bump_tc):\n'
            '    x0 = bump_rx1**(-2.0)\n'
            '    x2 = (bump_tc - t)**2/bump_rt**2\n'
            '    x3 = x0*(bump_cx1 - x1)**2\n'
            '    x4 = x2 + x3\n'
            '    return bump_amp*select([less(x4, 1),True], [8*x0*(x4 - 1)**2*(x2 + 7*x3 - 1),0], default=nan)\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, bump_amp, bump_cx1, bump_rt, bump_rx1, bump_tc):\n'
            '    x0 = bump_rt**(-2.0)\n'
            '    x2 = x0*(-bump_tc + t)**2 + (-bump_cx1 + x1)**2/bump_rx1**2\n'
            '    return bump_amp*select([less(x2, 1),True], [-4*x0*(1 - x2)**3*(-2*bump_tc + 2*t),0], default=nan)\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, bump_amp, bump_cx1, bump_rt, bump_rx1, bump_tc):\n'
            '    x0 = bump_rt**(-2.0)\n'
            '    x2 = bump_rx1**(-2.0)\n'
            '    x3 = x0*(-bump_tc + t)**2 + x2*(-bump_cx1 + x1)**2\n'
            '    return bump_amp*select([less(x3, 1),True], [12*x0*x2*(1 - x3)**2*(-2*bump_cx1 + 2*x1)*(-2*bump_tc + 2*t),0], default=nan)\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, bump_amp, bump_cx1, bump_rt, bump_rx1, bump_tc):\n'
            '    x0 = bump_rt**(-2.0)\n'
            '    x2 = (bump_cx1 - x1)**2/bump_rx1**2\n'
            '    x3 = x0*(bump_tc - t)**2\n'
            '    x4 = x2 + x3\n'
            '    return bump_amp*select([less(x4, 1),True], [8*x0*(x4 - 1)**2*(x2 + 7*x3 - 1),0], default=nan)\n'
        ),
    },
    ('char_exp_flat', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, chef_tau):\n'
            '    return exp(chef_tau*t) - exp(chef_tau*x1)\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, chef_tau):\n'
            '    return -chef_tau*exp(chef_tau*x1)\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, chef_tau):\n'
            '    return -chef_tau**2*exp(chef_tau*x1)\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, chef_tau):\n'
            '    return chef_tau*exp(chef_tau*t)\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, chef_tau):\n'
            '    return 0\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, chef_tau):\n'
            '    return chef_tau**2*exp(chef_tau*t)\n'
        ),
    },
    ('char_linear', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1):\n'
            '    return -chl_ux1*x1 + t\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, chl_ux1):\n'
            '    return -chl_ux1\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, chl_ux1):\n'
            '    return 0\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1):\n'
            '    return 1\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, chl_ux1):\n'
            '    return 0\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1):\n'
            '    return 0\n'
        ),
    },
    ('exp_quadratic', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, expq_amp, expq_att, expq_ax1, expq_bt, expq_bx1):\n'
            '    return expq_amp*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + expq_bt*t + expq_bx1*x1)\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, expq_amp, expq_att, expq_ax1, expq_bt, expq_bx1):\n'
            '    return expq_amp*(expq_ax1*x1 + expq_bx1)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + expq_bt*t + expq_bx1*x1)\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, expq_amp, expq_att, expq_ax1, expq_bt, expq_bx1):\n'
            '    return expq_amp*(expq_ax1 + (expq_ax1*x1 + expq_bx1)**2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + expq_bt*t + expq_bx1*x1)\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, expq_amp, expq_att, expq_ax1, expq_bt, expq_bx1):\n'
            '    return expq_amp*(expq_att*t + expq_bt)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + expq_bt*t + expq_bx1*x1)\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, expq_amp, expq_att, expq_ax1, expq_bt, expq_bx1):\n'
            '    return expq_amp*(expq_att*t + expq_bt)*(expq_ax1*x1 + expq_bx1)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + expq_bt*t + expq_bx1*x1)\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, expq_amp, expq_att, expq_ax1, expq_bt, expq_bx1):\n'
            '    return expq_amp*(expq_att + (expq_att*t + expq_bt)**2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + expq_bt*t + expq_bx1*x1)\n'
        ),
    },
    ('exp_quadratic', 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_ax2*x2 + expq_bx2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_ax2 + (expq_ax2*x2 + expq_bx2)**2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_ax1*x1 + expq_bx1)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_ax1*x1 + expq_bx1)*(expq_ax2*x2 + expq_bx2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_ax1 + (expq_ax1*x1 + expq_bx1)**2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_att*t + expq_bt)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_att*t + expq_bt)*(expq_ax2*x2 + expq_bx2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_att*t + expq_bt)*(expq_ax1*x1 + expq_bx1)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, expq_amp, expq_att, expq_ax1, expq_ax2, expq_bt, expq_bx1, expq_bx2):\n'
            '    return expq_amp*(expq_att + (expq_att*t + expq_bt)**2)*exp((1/2)*expq_att*t**2 + (1/2)*expq_ax1*x1**2 + (1/2)*expq_ax2*x2**2 + expq_bt*t + expq_bx1*x1 + expq_bx2*x2)\n'
        ),
    },
    ('quadratic', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return quad_cx1 + quad_qx1*x1\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return quad_qx1\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return quad_ct + quad_qtt*t\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return 0\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return quad_qtt\n'
        ),
    },
    ('quadratic', 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return quad_cx2 + quad_qx2*x2\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return quad_qx2\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return quad_cx1 + quad_qx1*x1\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return 0\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return quad_qx1\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return quad_ct + quad_qtt*t\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return 0\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return 0\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return quad_qtt\n'
        ),
    },
    ('radial_norm', 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    return sqrt((-rad_cx1 + x1)**2 + (-rad_cx2 + x2)**2)\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    x0 = -rad_cx2 + x2\n'
            '    return x0/sqrt(x0**2 + (-rad_cx1 + x1)**2)\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    x0 = (rad_cx2 - x2)**2\n'
            '    x3 = x0 + (rad_cx1 - x1)**2\n'
            '    return (-x0/x3 + 1)/sqrt(x3)\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    x0 = -rad_cx1 + x1\n'
            '    return x0/sqrt(x0**2 + (-rad_cx2 + x2)**2)\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    x0 = -rad_cx1 + x1\n'
            '    x3 = rad_cx2 - x2\n'
            '    return x0*x3/(x0**2 + x3**2)**(3/2)\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    x0 = (rad_cx1 - x1)**2\n'
            '    x3 = x0 + (rad_cx2 - x2)**2\n'
            '    return (-x0/x3 + 1)/sqrt(x3)\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    return 0\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    return 0\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    return 0\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, rad_cx1, rad_cx2):\n'
            '    return 0\n'
        ),
    },
    ('space_bump4', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, sbump_amp, sbump_cx1, sbump_rx1):\n'
            '    x0 = (-sbump_cx1 + x1)**2/sbump_rx1**2\n'
            '    return sbump_amp*select([less(x0, 1),True], [(1 - x0)**4,0.0], default=nan)\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, sbump_amp, sbump_cx1, sbump_rx1):\n'
            '    x0 = sbump_rx1**(-2.0)\n'
            '    x2 = x0*(-sbump_cx1 + x1)**2\n'
            '    return sbump_amp*select([less(x2, 1),True], [-4*x0*(1 - x2)**3*(-2*sbump_cx1 + 2*x1),0], default=nan)\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, sbump_amp, sbump_cx1, sbump_rx1):\n'
            '    x0 = sbump_rx1**(-2.0)\n'
            '    x2 = x0*(sbump_cx1 - x1)**2\n'
            '    return sbump_amp*select([less(x2, 1),True], [-8*x0*(1 - 7*x2)*(1 - x2)**2,0], default=nan)\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, sbump_amp, sbump_cx1, sbump_rx1):\n'
            '    return 0\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, sbump_amp, sbump_cx1, sbump_rx1):\n'
            '    return 0\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, sbump_amp, sbump_cx1, sbump_rx1):\n'
            '    return 0\n'
        ),
    },
    ('space_bump4', 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    x0 = (-sbump_cx2 + x2)**2/sbump_rx2**2 + (-sbump_cx1 + x1)**2/sbump_rx1**2\n'
            '    return sbump_amp*select([less(x0, 1),True], [(1 - x0)**4,0.0], default=nan)\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    x0 = sbump_rx2**(-2.0)\n'
            '    x3 = x0*(-sbump_cx2 + x2)**2 + (-sbump_cx1 + x1)**2/sbump_rx1**2\n'
            '    return sbump_amp*select([less(x3, 1),True], [-4*x0*(1 - x3)**3*(-2*sbump_cx2 + 2*x2),0], default=nan)\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    x0 = sbump_rx2**(-2.0)\n'
            '    x3 = (sbump_cx1 - x1)**2/sbump_rx1**2\n'
            '    x4 = x0*(sbump_cx2 - x2)**2\n'
            '    x5 = x3 + x4\n'
            '    return sbump_amp*select([less(x5, 1),True], [8*x0*(x5 - 1)**2*(x3 + 7*x4 - 1),0], default=nan)\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    x0 = sbump_rx1**(-2.0)\n'
            '    x3 = x0*(-sbump_cx1 + x1)**2 + (-sbump_cx2 + x2)**2/sbump_rx2**2\n'
            '    return sbump_amp*select([less(x3, 1),True], [-4*x0*(1 - x3)**3*(-2*sbump_cx1 + 2*x1),0], default=nan)\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    x0 = sbump_rx1**(-2.0)\n'
            '    x3 = sbump_rx2**(-2.0)\n'
            '    x4 = x0*(-sbump_cx1 + x1)**2 + x3*(-sbump_cx2 + x2)**2\n'
            '    return sbump_amp*select([less(x4, 1),True], [12*x0*x3*(1 - x4)**2*(-2*sbump_cx1 + 2*x1)*(-2*sbump_cx2 + 2*x2),0], default=nan)\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    x0 = sbump_rx1**(-2.0)\n'
            '    x3 = (sbump_cx2 - x2)**2/sbump_rx2**2\n'
            '    x4 = x0*(sbump_cx1 - x1)**2\n'
            '    x5 = x3 + x4\n'
            '    return sbump_amp*select([less(x5, 1),True], [8*x0*(x5 - 1)**2*(x3 + 7*x4 - 1),0], default=nan)\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    return 0\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    return 0\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    return 0\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, sbump_amp, sbump_cx1, sbump_cx2, sbump_rx1, sbump_rx2):\n'
            '    return 0\n'
        ),
    },
    ('standing_wave', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, sw_amp, sw_k):\n'
            '    return sw_amp*sin(sw_k*x1)*cos(sw_k*t)\n'
        ),
    },
    ('trig_product', 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    return trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    return -trig_amp*trig_wx1*sin(trig_px1 + trig_wx1*x1)*sin(t*trig_wt + trig_pt)\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    return -trig_amp*trig_wx1**2*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    return trig_amp*trig_wt*cos(trig_px1 + trig_wx1*x1)*cos(t*trig_wt + trig_pt)\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    return -trig_amp*trig_wt*trig_wx1*sin(trig_px1 + trig_wx1*x1)*cos(t*trig_wt + trig_pt)\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    return -trig_amp*trig_wt**2*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)\n'
        ),
    },
    ('trig_product', 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return -trig_amp*trig_wx2*sin(trig_px2 + trig_wx2*x2)*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return -trig_amp*trig_wx2**2*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return -trig_amp*trig_wx1*sin(trig_px1 + trig_wx1*x1)*sin(t*trig_wt + trig_pt)*cos(trig_px2 + trig_wx2*x2)\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return trig_amp*trig_wx1*trig_wx2*sin(trig_px1 + trig_wx1*x1)*sin(trig_px2 + trig_wx2*x2)*sin(t*trig_wt + trig_pt)\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return -trig_amp*trig_wx1**2*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return trig_amp*trig_wt*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)*cos(t*trig_wt + trig_pt)\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return -trig_amp*trig_wt*trig_wx2*sin(trig_px2 + trig_wx2*x2)*cos(trig_px1 + trig_wx1*x1)*cos(t*trig_wt + trig_pt)\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return -trig_amp*trig_wt*trig_wx1*sin(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)*cos(t*trig_wt + trig_pt)\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return -trig_amp*trig_wt**2*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)\n'
        ),
    },
    (('psi', 'affine'), 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_cx1*cw_gamma*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_cx1**2*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (0, 3): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_cx1**3*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (0, 4): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_cx1**4*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct*cw_gamma*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct*aff_cx1*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (1, 2): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct*aff_cx1**2*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct**2*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (2, 1): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct**2*aff_cx1*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (2, 2): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct**2*aff_cx1**2*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (3, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct**3*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
        (4, 0): (
            'def _lambdifygenerated(t, x1, aff_c0, aff_ct, aff_cx1, cw_gamma):\n'
            '    return aff_ct**4*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1))\n'
        ),
    },
    (('psi', 'affine'), 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx2*cw_gamma*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx2**2*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 0, 3): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx2**3*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 0, 4): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx2**4*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1*cw_gamma*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1*aff_cx2*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 1, 2): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1*aff_cx2**2*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1**2*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 2, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1**2*aff_cx2*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 2, 2): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1**2*aff_cx2**2*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 3, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1**3*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (0, 4, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_cx1**4*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct*cw_gamma*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct*aff_cx2*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (1, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct*aff_cx2**2*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct*aff_cx1*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (1, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct*aff_cx1*aff_cx2*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (1, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct*aff_cx1**2*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**2*cw_gamma**2*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (2, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**2*aff_cx2*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (2, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**2*aff_cx2**2*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (2, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**2*aff_cx1*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (2, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**2*aff_cx1*aff_cx2*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (2, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**2*aff_cx1**2*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (3, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**3*cw_gamma**3*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
        (4, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, aff_c0, aff_ct, aff_cx1, aff_cx2, cw_gamma):\n'
            '    return aff_ct**4*cw_gamma**4*exp(cw_gamma*(aff_c0 + aff_ct*t + aff_cx1*x1 + aff_cx2*x2))\n'
        ),
    },
    (('psi', 'char_linear'), 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return exp(cw_gamma*(-chl_ux1*x1 + t))\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return -chl_ux1*cw_gamma*exp(cw_gamma*(-chl_ux1*x1 + t))\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return chl_ux1**2*cw_gamma**2*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (0, 3): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return -chl_ux1**3*cw_gamma**3*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (0, 4): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return chl_ux1**4*cw_gamma**4*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return cw_gamma*exp(cw_gamma*(-chl_ux1*x1 + t))\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return -chl_ux1*cw_gamma**2*exp(cw_gamma*(-chl_ux1*x1 + t))\n'
        ),
        (1, 2): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return chl_ux1**2*cw_gamma**3*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return cw_gamma**2*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (2, 1): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return -chl_ux1*cw_gamma**3*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (2, 2): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return chl_ux1**2*cw_gamma**4*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (3, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return cw_gamma**3*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
        (4, 0): (
            'def _lambdifygenerated(t, x1, chl_ux1, cw_gamma):\n'
            '    return cw_gamma**4*exp(-cw_gamma*(chl_ux1*x1 - t))\n'
        ),
    },
    (('psi', 'quadratic'), 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma*(quad_cx1 + quad_qx1*x1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (0, 3): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    x0 = quad_cx1 + quad_qx1*x1\n'
            '    return cw_gamma**2*x0*(cw_gamma*x0**2 + 3*quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (0, 4): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    x0 = cw_gamma**2\n'
            '    x2 = quad_cx1 + quad_qx1*x1\n'
            '    return x0*(6*cw_gamma*quad_qx1*x2**2 + 3*quad_qx1**2 + x0*x2**4)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma*(quad_ct + quad_qtt*t)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma**2*(quad_ct + quad_qtt*t)*(quad_cx1 + quad_qx1*x1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (1, 2): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma**2*(quad_ct + quad_qtt*t)*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (2, 1): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma**2*(quad_cx1 + quad_qx1*x1)*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (2, 2): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    return cw_gamma**2*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (3, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    x0 = quad_ct + quad_qtt*t\n'
            '    return cw_gamma**2*x0*(cw_gamma*x0**2 + 3*quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
        (4, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_qtt, quad_qx1):\n'
            '    x0 = cw_gamma**2\n'
            '    x2 = quad_ct + quad_qtt*t\n'
            '    return x0*(6*cw_gamma*quad_qtt*x2**2 + 3*quad_qtt**2 + x0*x2**4)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2))\n'
        ),
    },
    (('psi', 'quadratic'), 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma*(quad_cx2 + quad_qx2*x2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma*(cw_gamma*(quad_cx2 + quad_qx2*x2)**2 + quad_qx2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 0, 3): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    x0 = quad_cx2 + quad_qx2*x2\n'
            '    return cw_gamma**2*x0*(cw_gamma*x0**2 + 3*quad_qx2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 0, 4): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    x0 = cw_gamma**2\n'
            '    x3 = quad_cx2 + quad_qx2*x2\n'
            '    return x0*(6*cw_gamma*quad_qx2*x3**2 + 3*quad_qx2**2 + x0*x3**4)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma*(quad_cx1 + quad_qx1*x1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_cx1 + quad_qx1*x1)*(quad_cx2 + quad_qx2*x2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 1, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_cx1 + quad_qx1*x1)*(cw_gamma*(quad_cx2 + quad_qx2*x2)**2 + quad_qx2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 2, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_cx2 + quad_qx2*x2)*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 2, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*(cw_gamma*(quad_cx2 + quad_qx2*x2)**2 + quad_qx2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 3, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    x0 = quad_cx1 + quad_qx1*x1\n'
            '    return cw_gamma**2*x0*(cw_gamma*x0**2 + 3*quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (0, 4, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    x0 = cw_gamma**2\n'
            '    x3 = quad_cx1 + quad_qx1*x1\n'
            '    return x0*(6*cw_gamma*quad_qx1*x3**2 + 3*quad_qx1**2 + x0*x3**4)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma*(quad_ct + quad_qtt*t)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_ct + quad_qtt*t)*(quad_cx2 + quad_qx2*x2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (1, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_ct + quad_qtt*t)*(cw_gamma*(quad_cx2 + quad_qx2*x2)**2 + quad_qx2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_ct + quad_qtt*t)*(quad_cx1 + quad_qx1*x1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (1, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**3*(quad_ct + quad_qtt*t)*(quad_cx1 + quad_qx1*x1)*(quad_cx2 + quad_qx2*x2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (1, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_ct + quad_qtt*t)*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (2, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_cx2 + quad_qx2*x2)*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (2, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*(cw_gamma*(quad_cx2 + quad_qx2*x2)**2 + quad_qx2)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (2, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(quad_cx1 + quad_qx1*x1)*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (2, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**3*(quad_cx1 + quad_qx1*x1)*(quad_cx2 + quad_qx2*x2)*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (2, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    return cw_gamma**2*(cw_gamma*(quad_ct + quad_qtt*t)**2 + quad_qtt)*(cw_gamma*(quad_cx1 + quad_qx1*x1)**2 + quad_qx1)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (3, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    x0 = quad_ct + quad_qtt*t\n'
            '    return cw_gamma**2*x0*(cw_gamma*x0**2 + 3*quad_qtt)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
        (4, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, quad_c0, quad_ct, quad_cx1, quad_cx2, quad_qtt, quad_qx1, quad_qx2):\n'
            '    x0 = cw_gamma**2\n'
            '    x3 = quad_ct + quad_qtt*t\n'
            '    return x0*(6*cw_gamma*quad_qtt*x3**2 + 3*quad_qtt**2 + x0*x3**4)*exp(cw_gamma*(quad_c0 + quad_ct*t + quad_cx1*x1 + quad_cx2*x2 + (1/2)*quad_qtt*t**2 + (1/2)*quad_qx1*x1**2 + (1/2)*quad_qx2*x2**2))\n'
        ),
    },
    (('psi', 'trig_product'), 1): {
        (0, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    return exp(cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1))\n'
        ),
        (0, 1): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x2 = cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)\n'
            '    return -trig_wx1*x2*exp(x2*cos(x0))*sin(x0)\n'
        ),
        (0, 2): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x2 = cos(x0)\n'
            '    x3 = cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)\n'
            '    return trig_wx1**2*x3*(-x2 + x3*sin(x0)**2)*exp(x2*x3)\n'
        ),
        (0, 3): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x2 = sin(t*trig_wt + trig_pt)\n'
            '    x3 = cw_gamma*trig_amp*x2\n'
            '    x4 = x3*cos(x0)\n'
            '    x5 = sin(x0)\n'
            '    return trig_wx1**3*x3*x5*(-cw_gamma**2*trig_amp**2*x2**2*x5**2 + 3*x4 + 1)*exp(x4)\n'
        ),
        (0, 4): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x2 = cos(x0)\n'
            '    x3 = sin(x0)\n'
            '    x4 = x3**2\n'
            '    x5 = sin(t*trig_wt + trig_pt)\n'
            '    x6 = cw_gamma*trig_amp*x5\n'
            '    return trig_wx1**4*x6*(cw_gamma**3*trig_amp**3*x3**4*x5**3 - 6*cw_gamma**2*trig_amp**2*x2*x4*x5**2 + 3*x2**2*x6 + x2 - 4*x4*x6)*exp(x2*x6)\n'
        ),
        (1, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x2 = cw_gamma*trig_amp*cos(trig_px1 + trig_wx1*x1)\n'
            '    return trig_wt*x2*exp(x2*sin(x0))*cos(x0)\n'
        ),
        (1, 1): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = cw_gamma*trig_amp\n'
            '    x2 = t*trig_wt + trig_pt\n'
            '    x3 = trig_px1 + trig_wx1*x1\n'
            '    x4 = sin(x2)*cos(x3)\n'
            '    x5 = trig_wt*trig_wx1*exp(x0*x4)*sin(x3)*cos(x2)\n'
            '    return -cw_gamma**2*trig_amp**2*x4*x5 - x0*x5\n'
        ),
        (1, 2): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x2 = cos(x0)\n'
            '    x3 = -x2\n'
            '    x4 = t*trig_wt + trig_pt\n'
            '    x5 = cw_gamma*trig_amp\n'
            '    x6 = x5*sin(x4)\n'
            '    x7 = x6*sin(x0)**2\n'
            '    x8 = x2*x6\n'
            '    return trig_wt*trig_wx1**2*x5*(x3 + 2*x7 + x8*(x3 + x7))*exp(x8)*cos(x4)\n'
        ),
        (2, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x2 = sin(x0)\n'
            '    x3 = cw_gamma*trig_amp*cos(trig_px1 + trig_wx1*x1)\n'
            '    return trig_wt**2*x3*(-x2 + x3*cos(x0)**2)*exp(x2*x3)\n'
        ),
        (2, 1): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x2 = trig_px1 + trig_wx1*x1\n'
            '    x3 = cos(x2)\n'
            '    x4 = x3*cos(x0)**2\n'
            '    x5 = cw_gamma*trig_amp\n'
            '    x6 = sin(x0)\n'
            '    x7 = x3*x6\n'
            '    x8 = trig_wt**2*trig_wx1*exp(x5*x7)*sin(x2)\n'
            '    x9 = cw_gamma**2*trig_amp**2\n'
            '    x10 = x8*(x4*x5 - x6)\n'
            '    return -x10*x5 - x10*x7*x9 - x4*x8*x9\n'
        ),
        (2, 2): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x2 = cos(x0)**2\n'
            '    x3 = cw_gamma*trig_amp\n'
            '    x4 = x2*x3\n'
            '    x5 = trig_px1 + trig_wx1*x1\n'
            '    x6 = sin(x5)**2\n'
            '    x7 = 2*x6\n'
            '    x8 = cos(x5)\n'
            '    x9 = sin(x0)\n'
            '    x10 = x2*x8\n'
            '    x11 = x10*x3 - x9\n'
            '    x12 = x11*x8\n'
            '    x13 = x3*x9\n'
            '    x14 = x13*x6\n'
            '    return trig_wt**2*trig_wx1**2*x3*(cw_gamma**2*trig_amp**2*x10*x7*x9 + 2*x11*x14 + x12*x13*(x14 - x8) - x12 + x4*x7 - x4*x8**2)*exp(x13*x8)\n'
        ),
        (3, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x2 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x3 = cw_gamma*trig_amp*x2\n'
            '    x4 = x3*sin(x0)\n'
            '    x5 = cos(x0)\n'
            '    return trig_wt**3*x3*x5*(cw_gamma**2*trig_amp**2*x2**2*x5**2 - 3*x4 - 1)*exp(x4)\n'
        ),
        (4, 0): (
            'def _lambdifygenerated(t, x1, cw_gamma, trig_amp, trig_pt, trig_px1, trig_wt, trig_wx1):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x2 = sin(x0)\n'
            '    x3 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x4 = cw_gamma*trig_amp*x3\n'
            '    x5 = cos(x0)\n'
            '    x6 = x5**2\n'
            '    return trig_wt**4*x4*(cw_gamma**3*trig_amp**3*x3**3*x5**4 - 6*cw_gamma**2*trig_amp**2*x2*x3**2*x6 + 3*x2**2*x4 + x2 - 4*x4*x6)*exp(x2*x4)\n'
        ),
    },
    (('psi', 'trig_product'), 2): {
        (0, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    return exp(cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2))\n'
        ),
        (0, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px2 + trig_wx2*x2\n'
            '    x3 = cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)\n'
            '    return -trig_wx2*x3*exp(x3*cos(x0))*sin(x0)\n'
        ),
        (0, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px2 + trig_wx2*x2\n'
            '    x3 = cos(x0)\n'
            '    x4 = cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px1 + trig_wx1*x1)\n'
            '    return trig_wx2**2*x4*(-x3 + x4*sin(x0)**2)*exp(x3*x4)\n'
        ),
        (0, 0, 3): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px2 + trig_wx2*x2\n'
            '    x3 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x4 = sin(t*trig_wt + trig_pt)\n'
            '    x5 = cw_gamma*trig_amp*x3*x4\n'
            '    x6 = x5*cos(x0)\n'
            '    x7 = sin(x0)\n'
            '    return trig_wx2**3*x5*x7*(-cw_gamma**2*trig_amp**2*x3**2*x4**2*x7**2 + 3*x6 + 1)*exp(x6)\n'
        ),
        (0, 0, 4): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px2 + trig_wx2*x2\n'
            '    x3 = cos(x0)\n'
            '    x4 = sin(x0)\n'
            '    x5 = x4**2\n'
            '    x6 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x7 = sin(t*trig_wt + trig_pt)\n'
            '    x8 = cw_gamma*trig_amp*x6*x7\n'
            '    return trig_wx2**4*x8*(cw_gamma**3*trig_amp**3*x4**4*x6**3*x7**3 - 6*cw_gamma**2*trig_amp**2*x3*x5*x6**2*x7**2 + 3*x3**2*x8 + x3 - 4*x5*x8)*exp(x3*x8)\n'
        ),
        (0, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x3 = cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px2 + trig_wx2*x2)\n'
            '    return -trig_wx1*x3*exp(x3*cos(x0))*sin(x0)\n'
        ),
        (0, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = sin(t*trig_wt + trig_pt)\n'
            '    x3 = cw_gamma*trig_amp*x0\n'
            '    x4 = trig_px1 + trig_wx1*x1\n'
            '    x5 = trig_px2 + trig_wx2*x2\n'
            '    x6 = cos(x4)*cos(x5)\n'
            '    x7 = trig_wx1*trig_wx2*exp(x3*x6)*sin(x4)*sin(x5)\n'
            '    return cw_gamma**2*trig_amp**2*x0**2*x6*x7 + x3*x7\n'
        ),
        (0, 1, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px2 + trig_wx2*x2\n'
            '    x3 = cos(x0)\n'
            '    x4 = -x3\n'
            '    x5 = trig_px1 + trig_wx1*x1\n'
            '    x6 = cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)\n'
            '    x7 = x6*cos(x5)\n'
            '    x8 = x7*sin(x0)**2\n'
            '    x9 = x3*x7\n'
            '    return trig_wx1*trig_wx2**2*x6*(-x4 - 2*x8 - x9*(x4 + x8))*exp(x9)*sin(x5)\n'
        ),
        (0, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x3 = cos(x0)\n'
            '    x4 = cw_gamma*trig_amp*sin(t*trig_wt + trig_pt)*cos(trig_px2 + trig_wx2*x2)\n'
            '    return trig_wx1**2*x4*(-x3 + x4*sin(x0)**2)*exp(x3*x4)\n'
        ),
        (0, 2, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x3 = trig_px2 + trig_wx2*x2\n'
            '    x4 = cos(x3)\n'
            '    x5 = x4*sin(x0)**2\n'
            '    x6 = sin(t*trig_wt + trig_pt)\n'
            '    x7 = cw_gamma*trig_amp*x6\n'
            '    x8 = cos(x0)\n'
            '    x9 = x4*x8\n'
            '    x10 = trig_wx1**2*trig_wx2*exp(x7*x9)*sin(x3)\n'
            '    x11 = cw_gamma**2*trig_amp**2*x6**2\n'
            '    x12 = x10*(x5*x7 - x8)\n'
            '    return -x10*x11*x5 - x11*x12*x9 - x12*x7\n'
        ),
        (0, 2, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x3 = sin(x0)**2\n'
            '    x4 = sin(t*trig_wt + trig_pt)\n'
            '    x5 = cw_gamma*trig_amp*x4\n'
            '    x6 = x3*x5\n'
            '    x7 = trig_px2 + trig_wx2*x2\n'
            '    x8 = sin(x7)**2\n'
            '    x9 = 2*x8\n'
            '    x10 = cos(x7)\n'
            '    x11 = cos(x0)\n'
            '    x12 = x10*x3\n'
            '    x13 = -x11 + x12*x5\n'
            '    x14 = x10*x13\n'
            '    x15 = x11*x5\n'
            '    x16 = x15*x8\n'
            '    return trig_wx1**2*trig_wx2**2*x5*(cw_gamma**2*trig_amp**2*x11*x12*x4**2*x9 - x10**2*x6 + 2*x13*x16 + x14*x15*(-x10 + x16) - x14 + x6*x9)*exp(x10*x15)\n'
        ),
        (0, 3, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x3 = cos(trig_px2 + trig_wx2*x2)\n'
            '    x4 = sin(t*trig_wt + trig_pt)\n'
            '    x5 = cw_gamma*trig_amp*x3*x4\n'
            '    x6 = x5*cos(x0)\n'
            '    x7 = sin(x0)\n'
            '    return trig_wx1**3*x5*x7*(-cw_gamma**2*trig_amp**2*x3**2*x4**2*x7**2 + 3*x6 + 1)*exp(x6)\n'
        ),
        (0, 4, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x3 = cos(x0)\n'
            '    x4 = sin(x0)\n'
            '    x5 = x4**2\n'
            '    x6 = cos(trig_px2 + trig_wx2*x2)\n'
            '    x7 = sin(t*trig_wt + trig_pt)\n'
            '    x8 = cw_gamma*trig_amp*x6*x7\n'
            '    return trig_wx1**4*x8*(cw_gamma**3*trig_amp**3*x4**4*x6**3*x7**3 - 6*cw_gamma**2*trig_amp**2*x3*x5*x6**2*x7**2 + 3*x3**2*x8 + x3 - 4*x5*x8)*exp(x3*x8)\n'
        ),
        (1, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = cw_gamma*trig_amp*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)\n'
            '    return trig_wt*x3*exp(x3*sin(x0))*cos(x0)\n'
        ),
        (1, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x3 = cw_gamma*trig_amp*x0\n'
            '    x4 = t*trig_wt + trig_pt\n'
            '    x5 = trig_px2 + trig_wx2*x2\n'
            '    x6 = sin(x4)*cos(x5)\n'
            '    x7 = trig_wt*trig_wx2*exp(x3*x6)*sin(x5)*cos(x4)\n'
            '    return -cw_gamma**2*trig_amp**2*x0**2*x6*x7 - x3*x7\n'
        ),
        (1, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px2 + trig_wx2*x2\n'
            '    x3 = cos(x0)\n'
            '    x4 = -x3\n'
            '    x5 = t*trig_wt + trig_pt\n'
            '    x6 = cw_gamma*trig_amp*cos(trig_px1 + trig_wx1*x1)\n'
            '    x7 = x6*sin(x5)\n'
            '    x8 = x7*sin(x0)**2\n'
            '    x9 = x3*x7\n'
            '    return trig_wt*trig_wx2**2*x6*(x4 + 2*x8 + x9*(x4 + x8))*exp(x9)*cos(x5)\n'
        ),
        (1, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = cos(trig_px2 + trig_wx2*x2)\n'
            '    x3 = cw_gamma*trig_amp*x0\n'
            '    x4 = t*trig_wt + trig_pt\n'
            '    x5 = trig_px1 + trig_wx1*x1\n'
            '    x6 = sin(x4)*cos(x5)\n'
            '    x7 = trig_wt*trig_wx1*exp(x3*x6)*sin(x5)*cos(x4)\n'
            '    return -cw_gamma**2*trig_amp**2*x0**2*x6*x7 - x3*x7\n'
        ),
        (1, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = cw_gamma*trig_amp\n'
            '    x3 = t*trig_wt + trig_pt\n'
            '    x4 = trig_px1 + trig_wx1*x1\n'
            '    x5 = cos(x4)\n'
            '    x6 = trig_px2 + trig_wx2*x2\n'
            '    x7 = cos(x6)\n'
            '    x8 = sin(x3)\n'
            '    x9 = x5*x7*x8\n'
            '    x10 = trig_wt*trig_wx1*trig_wx2*exp(x0*x9)*sin(x4)*sin(x6)*cos(x3)\n'
            '    return cw_gamma**3*trig_amp**3*x10*x5**2*x7**2*x8**2 + 3*cw_gamma**2*trig_amp**2*x10*x9 + x0*x10\n'
        ),
        (1, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = trig_px1 + trig_wx1*x1\n'
            '    x3 = cos(x0)\n'
            '    x4 = -x3\n'
            '    x5 = t*trig_wt + trig_pt\n'
            '    x6 = cw_gamma*trig_amp*cos(trig_px2 + trig_wx2*x2)\n'
            '    x7 = x6*sin(x5)\n'
            '    x8 = x7*sin(x0)**2\n'
            '    x9 = x3*x7\n'
            '    return trig_wt*trig_wx1**2*x6*(x4 + 2*x8 + x9*(x4 + x8))*exp(x9)*cos(x5)\n'
        ),
        (2, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = sin(x0)\n'
            '    x4 = cw_gamma*trig_amp*cos(trig_px1 + trig_wx1*x1)*cos(trig_px2 + trig_wx2*x2)\n'
            '    return trig_wt**2*x4*(-x3 + x4*cos(x0)**2)*exp(x3*x4)\n'
        ),
        (2, 0, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = trig_px2 + trig_wx2*x2\n'
            '    x4 = cos(x3)\n'
            '    x5 = x4*cos(x0)**2\n'
            '    x6 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x7 = cw_gamma*trig_amp*x6\n'
            '    x8 = sin(x0)\n'
            '    x9 = x4*x8\n'
            '    x10 = trig_wt**2*trig_wx2*exp(x7*x9)*sin(x3)\n'
            '    x11 = cw_gamma**2*trig_amp**2*x6**2\n'
            '    x12 = x10*(x5*x7 - x8)\n'
            '    return -x10*x11*x5 - x11*x12*x9 - x12*x7\n'
        ),
        (2, 0, 2): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = cos(x0)**2\n'
            '    x4 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x5 = cw_gamma*trig_amp*x4\n'
            '    x6 = x3*x5\n'
            '    x7 = trig_px2 + trig_wx2*x2\n'
            '    x8 = sin(x7)**2\n'
            '    x9 = 2*x8\n'
            '    x10 = cos(x7)\n'
            '    x11 = sin(x0)\n'
            '    x12 = x10*x3\n'
            '    x13 = -x11 + x12*x5\n'
            '    x14 = x10*x13\n'
            '    x15 = x11*x5\n'
            '    x16 = x15*x8\n'
            '    return trig_wt**2*trig_wx2**2*x5*(cw_gamma**2*trig_amp**2*x11*x12*x4**2*x9 - x10**2*x6 + 2*x13*x16 + x14*x15*(-x10 + x16) - x14 + x6*x9)*exp(x10*x15)\n'
        ),
        (2, 1, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = trig_px1 + trig_wx1*x1\n'
            '    x4 = cos(x3)\n'
            '    x5 = x4*cos(x0)**2\n'
            '    x6 = cos(trig_px2 + trig_wx2*x2)\n'
            '    x7 = cw_gamma*trig_amp*x6\n'
            '    x8 = sin(x0)\n'
            '    x9 = x4*x8\n'
            '    x10 = trig_wt**2*trig_wx1*exp(x7*x9)*sin(x3)\n'
            '    x11 = cw_gamma**2*trig_amp**2*x6**2\n'
            '    x12 = x10*(x5*x7 - x8)\n'
            '    return -x10*x11*x5 - x11*x12*x9 - x12*x7\n'
        ),
        (2, 1, 1): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = cos(x0)**2\n'
            '    x4 = trig_px1 + trig_wx1*x1\n'
            '    x5 = cos(x4)\n'
            '    x6 = trig_px2 + trig_wx2*x2\n'
            '    x7 = cos(x6)\n'
            '    x8 = x5*x7\n'
            '    x9 = x3*x8\n'
            '    x10 = cw_gamma*trig_amp\n'
            '    x11 = sin(x0)\n'
            '    x12 = x11*x8\n'
            '    x13 = trig_wt**2*trig_wx1*trig_wx2*exp(x10*x12)*sin(x4)*sin(x6)\n'
            '    x14 = 3*cw_gamma**2*trig_amp**2\n'
            '    x15 = x13*(x10*x9 - x11)\n'
            '    x16 = cw_gamma**3*trig_amp**3*x5**2*x7**2\n'
            '    return x10*x15 + x11**2*x15*x16 + 2*x11*x13*x16*x3 + x12*x14*x15 + x13*x14*x9\n'
        ),
        (2, 2, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = cos(x0)**2\n'
            '    x4 = cos(trig_px2 + trig_wx2*x2)\n'
            '    x5 = cw_gamma*trig_amp*x4\n'
            '    x6 = x3*x5\n'
            '    x7 = trig_px1 + trig_wx1*x1\n'
            '    x8 = sin(x7)**2\n'
            '    x9 = 2*x8\n'
            '    x10 = cos(x7)\n'
            '    x11 = sin(x0)\n'
            '    x12 = x10*x3\n'
            '    x13 = -x11 + x12*x5\n'
            '    x14 = x10*x13\n'
            '    x15 = x11*x5\n'
            '    x16 = x15*x8\n'
            '    return trig_wt**2*trig_wx1**2*x5*(cw_gamma**2*trig_amp**2*x11*x12*x4**2*x9 - x10**2*x6 + 2*x13*x16 + x14*x15*(-x10 + x16) - x14 + x6*x9)*exp(x10*x15)\n'
        ),
        (3, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x4 = cos(trig_px2 + trig_wx2*x2)\n'
            '    x5 = cw_gamma*trig_amp*x3*x4\n'
            '    x6 = x5*sin(x0)\n'
            '    x7 = cos(x0)\n'
            '    return trig_wt**3*x5*x7*(cw_gamma**2*trig_amp**2*x3**2*x4**2*x7**2 - 3*x6 - 1)*exp(x6)\n'
        ),
        (4, 0, 0): (
            'def _lambdifygenerated(t, x1, x2, cw_gamma, trig_amp, trig_pt, trig_px1, trig_px2, trig_wt, trig_wx1, trig_wx2):\n'
            '    x0 = t*trig_wt + trig_pt\n'
            '    x3 = sin(x0)\n'
            '    x4 = cos(trig_px1 + trig_wx1*x1)\n'
            '    x5 = cos(trig_px2 + trig_wx2*x2)\n'
            '    x6 = cw_gamma*trig_amp*x4*x5\n'
            '    x7 = cos(x0)\n'
            '    x8 = x7**2\n'
            '    return trig_wt**4*x6*(cw_gamma**3*trig_amp**3*x4**3*x5**3*x7**4 - 6*cw_gamma**2*trig_amp**2*x3*x4**2*x5**2*x8 + 3*x3**2*x6 + x3 - 4*x6*x8)*exp(x3*x6)\n'
        ),
    },
}
