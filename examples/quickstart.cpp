/**
 * @file
 * Quickstart: write a tiny kernel in the gpulat assembler, launch
 * it on a simulated Fermi GPU and read back results + statistics.
 *
 * Build & run:  ./build/example_quickstart
 */

#include <iostream>
#include <vector>

#include "gpu/gpu.hh"
#include "isa/assembler.hh"

int
main()
{
    using namespace gpulat;

    // 1. A GPU. Presets model the paper's chips; GF106 is Fermi.
    Gpu gpu(makeGF106());

    // 2. A kernel: out[i] = in[i] * in[i] + 1.
    const Kernel kernel = assemble(R"(
        .kernel square_plus_one
        s2r   r0, tid
        s2r   r1, ctaid
        s2r   r2, ntid
        imad  r0, r1, r2, r0        ; global thread id
        mov   r3, param2            ; n
        setp.ge p0, r0, r3
        @p0 bra done
        shl   r4, r0, 3
        mov   r5, param0
        iadd  r5, r5, r4
        ld.global r6, [r5]
        imul  r7, r6, r6

        iadd  r7, r7, 1
        mov   r8, param1
        iadd  r8, r8, r4
        st.global [r8], r7
        done:
        exit
    )");

    // 3. Device data.
    const std::uint64_t n = 1024;
    std::vector<std::uint64_t> input(n);
    for (std::uint64_t i = 0; i < n; ++i)
        input[i] = i;
    const Addr d_in = gpu.alloc(n * 8);
    const Addr d_out = gpu.alloc(n * 8);
    gpu.copyToDevice(d_in, input.data(), n * 8);

    // 4. Launch: 8 blocks x 128 threads.
    const LaunchResult lr =
        gpu.launch(kernel, 8, 128, {d_in, d_out, n});

    // 5. Read back and check.
    std::vector<std::uint64_t> output(n);
    gpu.copyFromDevice(output.data(), d_out, n * 8);
    std::uint64_t errors = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        if (output[i] != i * i + 1)
            ++errors;

    std::cout << "kernel '" << kernel.name << "' ran for "
              << lr.cycles << " cycles, issued " << lr.instructions
              << " warp instructions, " << errors << " errors\n";
    std::cout << "completed loads: "
              << gpu.latencies().count() << " memory requests, "
              << "L1 hits " << gpu.sm(0).l1()->hits()
              << " / misses " << gpu.sm(0).l1()->misses()
              << " (SM0)\n";
    return errors == 0 ? 0 : 1;
}
