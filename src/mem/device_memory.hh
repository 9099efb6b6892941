/**
 * @file
 * Functional device memory: flat byte store + bump allocator.
 *
 * Timing lives entirely in the caches/interconnect/DRAM models; this
 * class is the architectural state kernels actually read and write.
 *
 * The store is zeroed lazily. It is one std::calloc block: an
 * allocation that large is served by a fresh anonymous mapping, whose
 * pages read as zero and become resident only when first written, so
 * resident memory is the pages kernels and host copies have written.
 * A zero-filled std::vector would write, and keep resident, every
 * byte of deviceMemBytes at construction, although experiments touch
 * a small fraction of it. Reads and writes stay one pointer plus one
 * range check.
 */

#ifndef GPULAT_MEM_DEVICE_MEMORY_HH
#define GPULAT_MEM_DEVICE_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/log.hh"
#include "common/types.hh"

namespace gpulat {

class DeviceMemory
{
  public:
    explicit DeviceMemory(std::uint64_t bytes)
        : data_(static_cast<std::uint8_t *>(std::calloc(bytes, 1))),
          size_(bytes)
    {
        if (!data_)
            fatal("deviceMemBytes=", bytes, ": cannot reserve ", bytes,
                  " bytes of device memory");
    }

    /**
     * Allocate @p bytes with @p align alignment (bump allocator;
     * there is no free(), experiments create a fresh Gpu instead).
     */
    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = 256)
    {
        GPULAT_ASSERT(align > 0 && (align & (align - 1)) == 0,
                      "alignment must be a power of two");
        // Padding that rounds brk_ up to align; brk_ <= size_, so
        // neither comparison below can wrap.
        const std::uint64_t pad = (0 - brk_) & (align - 1);
        if (pad > size_ - brk_ || bytes > size_ - brk_ - pad)
            fatal("device memory exhausted: want ", bytes,
                  " bytes aligned to ", align, " after ", brk_,
                  ", have ", size_);
        const Addr base = brk_ + pad;
        brk_ = base + bytes;
        return base;
    }

    std::uint64_t
    read64(Addr addr) const
    {
        checkRange(addr, 8);
        std::uint64_t v;
        std::memcpy(&v, data_.get() + addr, 8);
        return v;
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        checkRange(addr, 8);
        std::memcpy(data_.get() + addr, &value, 8);
    }

    void
    copyIn(Addr addr, const void *src, std::uint64_t bytes)
    {
        checkRange(addr, bytes);
        std::memcpy(data_.get() + addr, src, bytes);
    }

    void
    copyOut(Addr addr, void *dst, std::uint64_t bytes) const
    {
        checkRange(addr, bytes);
        std::memcpy(dst, data_.get() + addr, bytes);
    }

    std::uint64_t size() const { return size_; }
    std::uint64_t allocated() const { return brk_; }

  private:
    /** Fatal unless [addr, addr + bytes) lies inside the store;
     *  written so that no operand can wrap past 2^64. */
    void
    checkRange(Addr addr, std::uint64_t bytes) const
    {
        if (addr > size_ || bytes > size_ - addr)
            fatal("device memory access out of range: ", bytes,
                  " bytes at ", addr, " of ", size_);
    }

    struct Free
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    std::unique_ptr<std::uint8_t[], Free> data_;
    std::uint64_t size_;
    Addr brk_ = 0;
};

} // namespace gpulat

#endif // GPULAT_MEM_DEVICE_MEMORY_HH
