/*
 * Wall-clock stack sampler, loaded with LD_PRELOAD (scripts/profile.sh
 * builds it and drives it).
 *
 * A POSIX timer on CLOCK_MONOTONIC signals the main thread every
 * 20 us (SIGEV_THREAD_ID). ITIMER_PROF would tick at the kernel's
 * jiffy resolution, a few hundred samples per second; this timer
 * takes ~50,000. The handler records the interrupted PC and walks the
 * frame-pointer chain for up to 11 more return addresses, so the
 * sampled program must be built with -fno-omit-frame-pointer; a frame
 * without one (most of libc) hides its caller.
 *
 * At exit the samples are written to altoc-prof.<pid>.txt in the
 * current directory, every address as (object index, address within
 * the object's ELF image) using the load bases from dl_iterate_phdr,
 * ready for addr2line:
 *
 *   O <index> <path>            one line per loaded object
 *   S <addr> <addr> ...         one line per sample, leaf first;
 *                               each addr is <index>:<hex vaddr>
 *   D <count>                   samples lost to a full buffer
 *
 * Only the main thread is sampled.
 */

#define _GNU_SOURCE
#include <elf.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

enum {
    kIntervalNs = 20000,
    kDepth = 12,
    kMaxSamples = 1 << 18, /* ~13 s at 20 us; 24 MB, touched as used */
    kMaxObjects = 256,
};

struct Sample {
    uintptr_t pc[kDepth];
};

static struct Sample *samples;
static volatile size_t taken;
static volatile size_t dropped;
static uintptr_t stackLo, stackHi;
static timer_t timer;
static int armed;

static void
onTick(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    if (taken >= kMaxSamples) {
        ++dropped;
        return;
    }
    const ucontext_t *uc = (const ucontext_t *)ctx;
    struct Sample *s = &samples[taken];
    memset(s, 0, sizeof *s);
    s->pc[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    for (int d = 1; d < kDepth; ++d) {
        /* A frame record is {saved fp, return address}; follow it only
         * while it lies on this stack and moves toward its base. */
        if (fp < stackLo || fp + 2 * sizeof(uintptr_t) > stackHi ||
            fp % sizeof(uintptr_t) != 0) {
            break;
        }
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0)
            break;
        s->pc[d] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    ++taken;
}

__attribute__((constructor)) static void
start(void)
{
    samples = mmap(NULL, sizeof(struct Sample) * kMaxSamples,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    pthread_attr_t attr;
    void *base = NULL;
    size_t size = 0;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
    stackLo = (uintptr_t)base;
    stackHi = stackLo + size;

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onTick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;

    struct sigevent sev;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
        return;
    struct itimerspec its;
    memset(&its, 0, sizeof its);
    its.it_interval.tv_nsec = kIntervalNs;
    its.it_value.tv_nsec = kIntervalNs;
    if (timer_settime(timer, 0, &its, NULL) != 0) {
        timer_delete(timer);
        return;
    }
    armed = 1;
}

struct Object {
    uintptr_t base;
    uintptr_t lo[16], hi[16];
    int segments;
    char path[512];
};

static struct Object objects[kMaxObjects];
static int numObjects;

static int
noteObject(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    (void)data;
    if (numObjects >= kMaxObjects)
        return 1;
    struct Object *o = &objects[numObjects];
    o->base = info->dlpi_addr;
    o->segments = 0;
    for (int i = 0; i < info->dlpi_phnum && o->segments < 16; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD)
            continue;
        o->lo[o->segments] = info->dlpi_addr + ph->p_vaddr;
        o->hi[o->segments] = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
        ++o->segments;
    }
    if (info->dlpi_name != NULL && info->dlpi_name[0] != '\0') {
        snprintf(o->path, sizeof o->path, "%s", info->dlpi_name);
    } else {
        /* The main program: dl_iterate_phdr reports it first and
         * unnamed. */
        const ssize_t n =
            readlink("/proc/self/exe", o->path, sizeof o->path - 1);
        o->path[n > 0 ? n : 0] = '\0';
    }
    ++numObjects;
    return 0;
}

static int
objectOf(uintptr_t pc)
{
    for (int i = 0; i < numObjects; ++i) {
        for (int s = 0; s < objects[i].segments; ++s) {
            if (pc >= objects[i].lo[s] && pc < objects[i].hi[s])
                return i;
        }
    }
    return -1;
}

__attribute__((destructor)) static void
finish(void)
{
    if (!armed)
        return;
    timer_delete(timer);
    armed = 0;
    dl_iterate_phdr(noteObject, NULL);

    char name[64];
    snprintf(name, sizeof name, "altoc-prof.%ld.txt", (long)getpid());
    FILE *out = fopen(name, "w");
    if (out == NULL)
        return;
    for (int i = 0; i < numObjects; ++i)
        fprintf(out, "O %d %s\n", i, objects[i].path);
    for (size_t k = 0; k < taken; ++k) {
        fputc('S', out);
        for (int d = 0; d < kDepth && samples[k].pc[d] != 0; ++d) {
            const uintptr_t pc = samples[k].pc[d];
            const int obj = objectOf(pc);
            if (obj < 0)
                fprintf(out, " -1:%lx", (unsigned long)pc);
            else
                fprintf(out, " %d:%lx", obj,
                        (unsigned long)(pc - objects[obj].base));
        }
        fputc('\n', out);
    }
    fprintf(out, "D %zu\n", (size_t)dropped);
    fclose(out);
}
