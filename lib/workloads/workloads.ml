(** The evaluation corpus for the Fig. 7 reproduction.

    The paper's F1–F7 are "innermost basic blocks taken from Purdue
    benchmarks in the HPF Benchmark suite"; their exact identity is not
    given, so we use seven kernels of the same character — small FP-heavy
    innermost blocks mixing loads/stores, adds, multiplies, divides, sqrt
    and int/float conversions (see DESIGN.md §4 on this substitution).
    Matmul is "the innermost basic block of a matrix-multiply loop which is
    blocked and unrolled 4 times in both dimensions (a total of 16 FMA
    operations in the basic block)", Jacobi and RB are the Jacobi and
    red-black relaxation inner blocks — exactly as in the paper. *)

open Pperf_lang

type kernel = {
  name : string;
  descr : string;
  source : string;  (** a complete PF routine *)
}

let f1 =
  {
    name = "F1";
    descr = "daxpy: y(i) = y(i) + a*x(i)";
    source =
      "subroutine f1(x, y, a, n)\n  integer n, i\n  real x(100000), y(100000), a\n\
      \  do i = 1, n\n    y(i) = y(i) + a * x(i)\n  end do\nend\n";
  }

let f2 =
  {
    name = "F2";
    descr = "dot product reduction";
    source =
      "subroutine f2(x, y, s, n)\n  integer n, i\n  real x(100000), y(100000), s\n\
      \  do i = 1, n\n    s = s + x(i) * y(i)\n  end do\nend\n";
  }

let f3 =
  {
    name = "F3";
    descr = "1-d smoothing stencil with divide";
    source =
      "subroutine f3(x, z, n)\n  integer n, i\n  real x(100000), z(100000)\n\
      \  do i = 2, n - 1\n    z(i) = (x(i-1) + 2.0 * x(i) + x(i+1)) / 4.0\n  end do\nend\n";
  }

let f4 =
  {
    name = "F4";
    descr = "degree-4 Horner polynomial evaluation";
    source =
      "subroutine f4(t, p, c0, c1, c2, c3, c4, n)\n  integer n, i\n\
      \  real t(100000), p(100000), c0, c1, c2, c3, c4\n\
      \  do i = 1, n\n    p(i) = (((c4 * t(i) + c3) * t(i) + c2) * t(i) + c1) * t(i) + c0\n\
      \  end do\nend\n";
  }

let f5 =
  {
    name = "F5";
    descr = "complex multiply (split arrays)";
    source =
      "subroutine f5(xr, xi, yr, yi, zr, zi, n)\n  integer n, i\n\
      \  real xr(100000), xi(100000), yr(100000), yi(100000), zr(100000), zi(100000)\n\
      \  do i = 1, n\n    zr(i) = xr(i) * yr(i) - xi(i) * yi(i)\n\
      \    zi(i) = xr(i) * yi(i) + xi(i) * yr(i)\n  end do\nend\n";
  }

let f6 =
  {
    name = "F6";
    descr = "normalization with sqrt and divide";
    source =
      "subroutine f6(x, w, n)\n  integer n, i\n  real x(100000), w(100000)\n\
      \  do i = 1, n\n    w(i) = x(i) / sqrt(x(i) * x(i) + 1.0)\n  end do\nend\n";
  }

let f7 =
  {
    name = "F7";
    descr = "scaled update with int/float conversion";
    source =
      "subroutine f7(x, y, h, n)\n  integer n, i\n  real x(100000), y(100000), h\n\
      \  do i = 1, n\n    y(i) = x(i) * (h * float(i)) + 0.5\n  end do\nend\n";
  }

let matmul_unrolled =
  (* the 4x4-unrolled, blocked matrix-multiply inner block: 16 FMAs *)
  let body =
    List.init 4 (fun bi ->
        List.init 4 (fun bj ->
            Printf.sprintf
              "      c(i+%d,j+%d) = c(i+%d,j+%d) + a(i+%d,k) * b(k,j+%d)" bi bj bi bj bi bj))
    |> List.concat |> String.concat "\n"
  in
  {
    name = "Matmul";
    descr = "matrix multiply blocked and 4x4-unrolled: 16 FMAs";
    source =
      Printf.sprintf
        "subroutine mm44(a, b, c, n)\n  integer n, i, j, k\n\
        \  real a(512,512), b(512,512), c(512,512)\n\
        \  do i = 1, n, 4\n    do j = 1, n, 4\n      do k = 1, n\n%s\n      end do\n    end do\n  end do\nend\n"
        body;
  }

let jacobi =
  {
    name = "Jacobi";
    descr = "Jacobi relaxation inner block";
    source =
      "subroutine jacobi(a, b, n)\n  integer n, i, j\n  real a(1000,1000), b(1000,1000)\n\
      \  do i = 2, n - 1\n    do j = 2, n - 1\n\
      \      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))\n\
      \    end do\n  end do\nend\n";
  }

let redblack =
  {
    name = "RB";
    descr = "red-black Gauss-Seidel inner block";
    source =
      "subroutine rb(u, f, w, h2, n)\n  integer n, i, j\n\
      \  real u(1000,1000), f(1000,1000), w, h2\n\
      \  do j = 2, n - 1\n    do i = 2, n - 1, 2\n\
      \      u(i,j) = u(i,j) + w * (0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1) - h2 * f(i,j)) - u(i,j))\n\
      \    end do\n  end do\nend\n";
  }

let fig7_kernels = [ f1; f2; f3; f4; f5; f6; f7; matmul_unrolled; jacobi; redblack ]

(* ---- extended corpus: not in the paper's Fig. 7, used by the extended
   accuracy table and the cross-machine experiments ---- *)

let tridiag =
  {
    name = "Tridiag";
    descr = "tridiagonal forward elimination step (recurrence)";
    source =
      "subroutine tri(a, b, c, d, n)
  integer n, i
      \  real a(100000), b(100000), c(100000), d(100000)
      \  do i = 2, n
    b(i) = b(i) - a(i) / b(i-1) * c(i-1)
      \    d(i) = d(i) - a(i) / b(i-1) * d(i-1)
  end do
end
";
  }

let prefix_sum =
  {
    name = "Scan";
    descr = "prefix sum (carried dependence, integer+float mix)";
    source =
      "subroutine scan(x, y, n)
  integer n, i
  real x(100000), y(100000)
      \  do i = 2, n
    y(i) = y(i-1) + x(i)
  end do
end
";
  }

let rational_fn =
  {
    name = "RatFn";
    descr = "pointwise rational function (two divides)";
    source =
      "subroutine rf(x, y, n)\n  integer n, i\n  real x(100000), y(100000)\n\
      \  do i = 1, n\n    y(i) = (x(i) + 1.0) / (x(i) - 1.0) / (x(i) + 2.0)\n  end do\nend\n";
  }

let convolve =
  {
    name = "Conv5";
    descr = "5-tap convolution (FMA chain per element)";
    source =
      "subroutine cv(x, y, c0, c1, c2, c3, c4, n)
  integer n, i
      \  real x(100000), y(100000), c0, c1, c2, c3, c4
      \  do i = 3, n - 2
      \    y(i) = c0 * x(i-2) + c1 * x(i-1) + c2 * x(i) + c3 * x(i+1) + c4 * x(i+2)
      \  end do
end
";
  }

let saxpy_strided =
  {
    name = "StrideAx";
    descr = "strided axpy (step-4 loop, address arithmetic)";
    source =
      "subroutine sax(x, y, a, n)
  integer n, i
  real x(100000), y(100000), a
      \  do i = 1, n, 4
    y(i) = y(i) + a * x(i)
  end do
end
";
  }

let extended_kernels = [ tridiag; prefix_sum; rational_fn; convolve; saxpy_strided ]

let all_kernels = fig7_kernels @ extended_kernels

(** Extract the innermost straight-line block of a kernel, translated to an
    atomic-operation DAG for the given machine, with proper loop context. *)
let innermost_dag ?(flags = Pperf_translate.Flags.default) ~machine kernel =
  let checked = Typecheck.check_routine (Parser.parse_routine kernel.source) in
  let loops, d, body = List.hd (Analysis.innermost_nests checked.routine.body) in
  let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
  let invariants =
    Analysis.loop_invariants ~declared:(Analysis.declared_names checked.symbols) d
  in
  Pperf_translate.Translator.translate_block ~machine ~flags ~symtab:checked.symbols
    ~loop_vars ~invariants body

let checked kernel = Typecheck.check_routine (Parser.parse_routine kernel.source)
