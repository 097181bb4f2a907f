"""Adaptive Gauss-Kronrod quadrature: a port of QUADPACK's ``dqagse``.

Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner (1983), *QUADPACK: A
Subroutine Package for Automatic Integration*, Springer.  ``dqagse`` bisects
the subinterval with the largest error estimate, integrating each half with
the 21-point Gauss-Kronrod rule (``dqk21``), keeps the error estimates in
descending order (``dqpsrt``) and accelerates the sequence of area estimates
with Wynn's (1956) epsilon algorithm (``dqelg``).

The port does the same float operations in the same order as the routines
behind ``scipy.integrate.quad`` on a finite interval, so ``quad`` below
returns the same value, error estimate and evaluation count, bit for bit, as
``scipy.integrate.quad(f, a, b, epsabs=..., epsrel=..., limit=...,
full_output=1)``.  Arrays are 1-based like the Fortran: slot 0 is unused.
"""

from __future__ import annotations

import sys

__all__ = ["quad"]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # rows of the epsilon table dqelg keeps

# 21-point Kronrod abscissae on [0, 1] (xgk) and weights (wgk); the even
# entries of xgk are the 10-point Gauss abscissae, whose weights are wg
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def quad(
    f, a: float, b: float, epsabs: float, epsrel: float, limit: int
) -> tuple[float, float, int]:
    """Integral of f over [a, b] with its error estimate and evaluation count.

    The same value, error and count as ``scipy.integrate.quad(f, a, b,
    epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)`` for finite
    a and b: an empty interval gives (0, 0, 0), and b < a integrates over
    [b, a] and negates the value.  Like scipy's, the result is returned
    whether or not the requested accuracy was met; tolerances that cannot be
    met raise ValueError, as scipy's do.
    """
    if a == b:
        return 0.0, 0.0, 0
    result, abserr, neval = _dqagse(f, min(a, b), max(a, b), epsabs, epsrel, limit)
    return (-result if b < a else result), abserr, neval


def _dqk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """21-point Gauss-Kronrod rule: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw - 1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j - 1] * fsum
        resk = resk + _WGK[jtw - 1] * fsum
        resabs = resabs + _WGK[jtw - 1] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1 - 1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1 - 1] * fsum
        resabs = resabs + _WGK[jtwm1 - 1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j - 1] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), where C's pow gives inf instead of raising and
        # fmin(1, NaN) is 1
        r = 200.0 * abserr / resasc
        abserr = resasc * (r**1.5 if r < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """Keep iord in descending order of elist; (maxerr, ermax, nrmax) next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int):
    """One step of Wynn's epsilon algorithm on epstab[1..n].

    Returns (n, result, abserr, nres); epstab and res3la change in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two close elements, or irregular behaviour: cut the table to n
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _dqagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK dqagse on a <= b: (result, abserr, neval)."""
    ier = 0
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        raise ValueError("with epsabs <= 0, epsrel must be at least 5e-29 and 50 eps")
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1

    summed = False  # leave through label 115: the result is the sum of rlist
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f, a2, b2)

        # improve the previous approximations to integral and error
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit, and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease erlarg, the error over the larger intervals, and
            # extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (labels 100 to 130, less the
    # statements that only set the error flag, which is not returned)
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
    if not summed:
        return result, abserr, 42 * last - 21
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, 42 * last - 21
