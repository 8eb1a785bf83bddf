/**
 * @file
 * The crypto kernel set, as perfbench's run manifest reads it.
 *
 * Every primitive has one portable C++ path, so these are constants:
 * the scalar kernels, with no batch kernels. They go once the
 * manifest stops reading them.
 */

#ifndef AMNT_CRYPTO_DISPATCH_HH
#define AMNT_CRYPTO_DISPATCH_HH

namespace amnt::crypto::dispatch
{

/** The one kernel set. */
enum class Isa
{
    Scalar,
};

/** Manifest name of @p isa. */
inline const char *
isaName(Isa)
{
    return "scalar";
}

/** The kernel set in use. */
struct Kernels
{
    Isa isa = Isa::Scalar;
};

inline Kernels
active()
{
    return {};
}

/** No batch kernels exist. */
inline bool
batchEnabled()
{
    return false;
}

} // namespace amnt::crypto::dispatch

#endif // AMNT_CRYPTO_DISPATCH_HH
